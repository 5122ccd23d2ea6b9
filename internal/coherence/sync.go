package coherence

import (
	"fmt"

	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/sim"
)

// This file implements Sync-mode page frames — §3.2's "a frame may be
// designated as a synchronization page that invokes a locking protocol
// for accesses to that page". Each line of a sync page is a queue
// lock living at the page's home controller: acquirers enqueue with
// one message and the releaser's message hands the lock straight to
// the next waiter — no invalidation storms on contended locks, unlike
// locks built from ordinary coherent lines.

// LockReqMsg asks the home controller for line Line of sync page Page.
type LockReqMsg struct {
	Page mem.GPage
	Line int
	From mem.NodeID
	// HomeFrame is the requester's reverse-translation hint.
	HomeFrame   mem.FrameID
	HomeFrameOK bool
}

// LockGrantMsg hands the lock to the requester at the head of the
// home's queue.
type LockGrantMsg struct {
	Page mem.GPage
	Line int
}

// UnlockMsg releases the lock; the home grants the next waiter.
type UnlockMsg struct {
	Page mem.GPage
	Line int
	From mem.NodeID
}

// lockWaiter is one node queued at the home for a held lock, with its
// enqueue time for the queue-wait latency histogram.
type lockWaiter struct {
	node  mem.NodeID
	since sim.Time
}

// hwLock is the home-side state of one sync line.
type hwLock struct {
	held   bool
	holder mem.NodeID
	queue  []lockWaiter
}

// pendingAcquire is a client-side acquire awaiting its grant, with
// its request time for the acquire-to-grant latency histogram.
type pendingAcquire struct {
	done  func(sim.Time)
	start sim.Time
}

// SyncStats counts hardware lock protocol activity.
type SyncStats struct {
	Acquires uint64 // grants issued by this home
	Handoffs uint64 // grants that went straight to a queued waiter
	MaxQueue int
}

// LockAcquire requests line ln of sync frame f; done runs in engine
// context when the home grants the lock. Requests from the same node
// for the same line are granted in issue order (the network is FIFO
// per node pair and the home queue is FIFO).
func (c *Controller) LockAcquire(at sim.Time, f mem.FrameID, ln int, ent *pit.Entry, done func(at sim.Time)) {
	if ent.Mode != pit.ModeSync {
		panic(fmt.Sprintf("coherence: node %d: LockAcquire on %v frame", c.node, ent.Mode))
	}
	key := mkLineKey(ent.GPage, ln)
	if c.lockWait == nil {
		c.lockWait = make(map[lineKey][]pendingAcquire)
	}
	c.lockWait[key] = append(c.lockWait[key], pendingAcquire{done: done, start: at})
	t := c.ctrlBusy(at, c.tm.CtrlOut)
	lr := c.pools.lockReq.Get()
	lr.Page, lr.Line, lr.From = ent.GPage, ln, c.node
	lr.HomeFrame, lr.HomeFrameOK = ent.HomeFrame, ent.HomeFrameKnown
	c.send(t, ent.DynHome, c.tm.MsgHeader, lr)
}

// LockRelease releases line ln of sync frame f (fire-and-forget, like
// a posted write to the command interface).
func (c *Controller) LockRelease(at sim.Time, f mem.FrameID, ln int, ent *pit.Entry) {
	if ent.Mode != pit.ModeSync {
		panic(fmt.Sprintf("coherence: node %d: LockRelease on %v frame", c.node, ent.Mode))
	}
	t := c.ctrlBusy(at, c.tm.CtrlOut)
	ul := c.pools.unlock.Get()
	ul.Page, ul.Line, ul.From = ent.GPage, ln, c.node
	c.send(t, ent.DynHome, c.tm.MsgHeader, ul)
}

// handleLockReq is the home side of an acquire.
func (c *Controller) handleLockReq(src mem.NodeID, m *LockReqMsg) {
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)
	_, ok, cost := c.PIT.ReverseLookup(m.Page, m.HomeFrame, m.HomeFrameOK)
	t += cost
	if !ok {
		panic(fmt.Sprintf("coherence: node %d: lock request for unmapped sync page %v", c.node, m.Page))
	}
	if c.hwLocks == nil {
		c.hwLocks = make(map[lineKey]*hwLock)
	}
	key := mkLineKey(m.Page, m.Line)
	l := c.hwLocks[key]
	if l == nil {
		l = &hwLock{}
		c.hwLocks[key] = l
	}
	if !l.held {
		l.held = true
		l.holder = m.From
		c.SyncStats.Acquires++
		lg := c.pools.lockGrant.Get()
		lg.Page, lg.Line = m.Page, m.Line
		c.send(t+2, m.From, c.tm.MsgHeader, lg)
		return
	}
	l.queue = append(l.queue, lockWaiter{node: m.From, since: t})
	if len(l.queue) > c.SyncStats.MaxQueue {
		c.SyncStats.MaxQueue = len(l.queue)
	}
}

// handleUnlock is the home side of a release: hand off or free.
func (c *Controller) handleUnlock(src mem.NodeID, m *UnlockMsg) {
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)
	key := mkLineKey(m.Page, m.Line)
	l := c.hwLocks[key]
	if l == nil || !l.held || l.holder != m.From {
		panic(fmt.Sprintf("coherence: node %d: unlock of %v:%d by non-holder %d", c.node, m.Page, m.Line, m.From))
	}
	if len(l.queue) > 0 {
		next := l.queue[0]
		l.queue = l.queue[1:]
		l.holder = next.node
		c.SyncStats.Acquires++
		c.SyncStats.Handoffs++
		c.histLockQueue.Observe(t - next.since)
		lg := c.pools.lockGrant.Get()
		lg.Page, lg.Line = m.Page, m.Line
		c.send(t+2, next.node, c.tm.MsgHeader, lg)
		return
	}
	l.held = false
}

// handleLockGrant completes the oldest pending acquire for the line.
func (c *Controller) handleLockGrant(src mem.NodeID, m *LockGrantMsg) {
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)
	key := mkLineKey(m.Page, m.Line)
	q := c.lockWait[key]
	if len(q) == 0 {
		panic(fmt.Sprintf("coherence: node %d: unexpected lock grant for %v:%d", c.node, m.Page, m.Line))
	}
	w := q[0]
	if len(q) == 1 {
		delete(c.lockWait, key)
	} else {
		c.lockWait[key] = q[1:]
	}
	c.histLockAcquire.Observe(t - w.start)
	c.e.CallAt(t, w.done)
}
