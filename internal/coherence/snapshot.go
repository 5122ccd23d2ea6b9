package coherence

import (
	"fmt"
	"sort"

	"prism/internal/mem"
	"prism/internal/sim"
)

// Serializable controller state. Transaction maps holding callbacks
// into processor coroutines (client, homeQ, flushWait, held, lockWait)
// are never captured: the capture layer requires Quiesced first, which
// forbids them. Home transactions are the one exception: once a grant
// is decided the home keeps the line locked waiting only for terminal
// acknowledgements (awaitGrantAck, invalidation ack collection), and
// such a transaction is closure-free — pure ack arithmetic — so these
// "tails" are captured as HomeTailState and rebuilt verbatim. Hardware
// lock queues must also be empty, but a lock may be *held* across a
// barrier, so held/holder are captured.

// ClientFrameHint is one cached client frame number (DirClientHints).
type ClientFrameHint struct {
	Node  mem.NodeID
	Frame mem.FrameID
}

// PageHintsState is the hint cache for one page, sorted by node.
type PageHintsState struct {
	Seg   mem.GSID
	Page  uint32
	Hints []ClientFrameHint
}

// MigratedToState is one tombstone for a page whose dynamic home
// moved away from this node.
type MigratedToState struct {
	Seg  mem.GSID
	Page uint32
	Node mem.NodeID
}

// PageTrafficState is one page's per-node hardware traffic counters.
type PageTrafficState struct {
	Seg    mem.GSID
	Page   uint32
	Counts []uint32
}

// HWLockState is one home-side hardware lock (queue must be empty at
// capture; held locks survive checkpoints).
type HWLockState struct {
	Seg    mem.GSID
	Page   uint32
	Line   int
	Held   bool
	Holder mem.NodeID
}

// HomeTailState is one closure-free home transaction: a locked line
// waiting only for terminal acknowledgements still on the wire.
type HomeTailState struct {
	Seg      mem.GSID
	Page     uint32
	Line     int
	NeedAcks int
}

// ControllerState is one node controller's serializable state.
type ControllerState struct {
	Ctrl         sim.ResourceState
	FlushToken   uint64
	ClientFrames []PageHintsState
	MigratedTo   []MigratedToState
	PageTraffic  []PageTrafficState
	HWLocks      []HWLockState
	HomeTails    []HomeTailState
	SyncStats    SyncStats
	Stats        Stats
}

// Quiesced reports whether the controller has no in-flight protocol
// transactions (part of the capture layer's quiescence predicate).
func (c *Controller) Quiesced() bool { return c.QuiesceBlocker() == "" }

// QuiesceBlocker names the first in-flight structure preventing
// quiescence, or "" if the controller is quiescent.
func (c *Controller) QuiesceBlocker() string {
	switch {
	case len(c.client) != 0:
		return fmt.Sprintf("%d client txns", len(c.client))
	case len(c.homeQ) != 0:
		return fmt.Sprintf("%d queued home requests", len(c.homeQ))
	case len(c.flushWait) != 0:
		return fmt.Sprintf("%d flush waiters", len(c.flushWait))
	case len(c.held) != 0:
		return fmt.Sprintf("%d held migration pages", len(c.held))
	case len(c.lockWait) != 0:
		return fmt.Sprintf("%d pending lock acquires", len(c.lockWait))
	}
	for _, l := range c.hwLocks {
		if len(l.queue) != 0 {
			return "queued hardware lock requesters"
		}
	}
	// Closure-free home transactions (ack-collection tails) are
	// serializable; any with a pending continuation is not.
	for _, t := range c.home {
		if t.finish != nil || t.onRecall != nil {
			return "home txn with pending continuation"
		}
	}
	return ""
}

// ExportState captures the controller. It panics if the controller is
// not quiescent.
func (c *Controller) ExportState() ControllerState {
	if !c.Quiesced() {
		panic("coherence: ExportState while not quiescent")
	}
	s := ControllerState{
		Ctrl:       c.ctrl.ExportState(),
		FlushToken: c.flushToken,
		SyncStats:  c.SyncStats,
		Stats:      c.Stats,
	}
	// The page tables iterate in ascending (seg, page) order.
	c.clientFrames.Range(func(g mem.GPage, byNode *map[mem.NodeID]mem.FrameID) {
		ph := PageHintsState{Seg: g.Seg, Page: g.Page}
		for n, f := range *byNode {
			ph.Hints = append(ph.Hints, ClientFrameHint{Node: n, Frame: f})
		}
		sort.Slice(ph.Hints, func(i, j int) bool { return ph.Hints[i].Node < ph.Hints[j].Node })
		s.ClientFrames = append(s.ClientFrames, ph)
	})
	c.migratedTo.Range(func(g mem.GPage, n *mem.NodeID) {
		s.MigratedTo = append(s.MigratedTo, MigratedToState{Seg: g.Seg, Page: g.Page, Node: *n})
	})
	c.pageTraffic.Range(func(g mem.GPage, counts *[]uint32) {
		s.PageTraffic = append(s.PageTraffic, PageTrafficState{Seg: g.Seg, Page: g.Page, Counts: append([]uint32(nil), *counts...)})
	})
	// The line-keyed maps stay maps; sorting the packed keys orders
	// them by (seg, page, line).
	for _, k := range sortedKeys(c.hwLocks) {
		l := c.hwLocks[k]
		s.HWLocks = append(s.HWLocks, HWLockState{Seg: k.page().Seg, Page: k.page().Page, Line: k.line(), Held: l.held, Holder: l.holder})
	}
	for _, k := range sortedKeys(c.home) {
		s.HomeTails = append(s.HomeTails, HomeTailState{Seg: k.page().Seg, Page: k.page().Page, Line: k.line(), NeedAcks: c.home[k].needAcks})
	}
	return s
}

// sortedKeys returns a line-keyed map's keys in ascending order.
func sortedKeys[V any](m map[lineKey]V) []lineKey {
	keys := make([]lineKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ImportState restores the controller over a freshly built machine.
func (c *Controller) ImportState(s ControllerState) {
	c.ctrl.ImportState(s.Ctrl)
	c.flushToken = s.FlushToken
	c.SyncStats = s.SyncStats
	c.Stats = s.Stats
	c.client = make(map[lineKey]*clientTxn)
	c.home = make(map[lineKey]*homeTxn)
	for _, t := range s.HomeTails {
		c.home[mkLineKey(mem.GPage{Seg: t.Seg, Page: t.Page}, t.Line)] = &homeTxn{needAcks: t.NeedAcks}
	}
	c.homeQ = make(map[lineKey][]func())
	c.flushWait = make(map[uint64]func(at sim.Time))
	c.held = nil
	c.lockWait = nil
	c.clientFrames.Clear()
	for _, ph := range s.ClientFrames {
		byNode := make(map[mem.NodeID]mem.FrameID, len(ph.Hints))
		for _, h := range ph.Hints {
			byNode[h.Node] = h.Frame
		}
		c.clientFrames.Set(mem.GPage{Seg: ph.Seg, Page: ph.Page}, byNode)
	}
	c.migratedTo.Clear()
	for _, e := range s.MigratedTo {
		c.migratedTo.Set(mem.GPage{Seg: e.Seg, Page: e.Page}, e.Node)
	}
	c.pageTraffic.Clear()
	for _, e := range s.PageTraffic {
		c.pageTraffic.Set(mem.GPage{Seg: e.Seg, Page: e.Page}, append([]uint32(nil), e.Counts...))
	}
	c.hwLocks = make(map[lineKey]*hwLock, len(s.HWLocks))
	for _, e := range s.HWLocks {
		c.hwLocks[mkLineKey(mem.GPage{Seg: e.Seg, Page: e.Page}, e.Line)] = &hwLock{held: e.Held, holder: e.Holder}
	}
}
