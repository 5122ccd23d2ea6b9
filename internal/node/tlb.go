package node

import "prism/internal/mem"

// TLB is a processor's small fully-associative LRU TLB: a fixed array
// of slots, each a translation with its LRU stamp. The clock ticks on
// every hit and insert, so stamps are strictly increasing and the
// least recently used slot is unique. Slot order carries no meaning.
type TLB struct {
	slots []tlbSlot
	n     int // occupied slots
	mru   int // slot of the last hit or insert, probed first
	clock uint64
}

type tlbSlot struct {
	key   uint64 // tlbKey of the page; 0 marks a free slot
	frame mem.FrameID
	stamp uint64
}

// tlbKey packs a virtual page into a nonzero slot key.
func tlbKey(vp mem.VPage) uint64 { return uint64(vp.Seg)<<32 | uint64(vp.Page) + 1 }

// NewTLB builds an empty TLB with capacity slots (64 if capacity <= 0).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 64
	}
	return &TLB{slots: make([]tlbSlot, capacity)}
}

// find returns the slot holding key k, or -1.
func (t *TLB) find(k uint64) int {
	for i := range t.slots {
		if t.slots[i].key == k {
			return i
		}
	}
	return -1
}

// Lookup returns vp's frame on a hit, which makes vp most recently
// used.
func (t *TLB) Lookup(vp mem.VPage) (mem.FrameID, bool) {
	k := tlbKey(vp)
	i := t.mru
	if t.slots[i].key != k {
		if i = t.find(k); i < 0 {
			return 0, false
		}
		t.mru = i
	}
	t.clock++
	t.slots[i].stamp = t.clock
	return t.slots[i].frame, true
}

// Insert maps vp to f as the most recently used entry. A full TLB
// first evicts its least recently used entry, even when vp is resident.
func (t *TLB) Insert(vp mem.VPage, f mem.FrameID) {
	if t.n == len(t.slots) {
		victim := 0
		for i := range t.slots {
			if t.slots[i].stamp < t.slots[victim].stamp {
				victim = i
			}
		}
		t.clear(victim)
	}
	k := tlbKey(vp)
	i := t.find(k)
	if i < 0 {
		i = t.find(0)
		t.slots[i].key = k
		t.n++
	}
	t.clock++
	t.slots[i].frame, t.slots[i].stamp = f, t.clock
	t.mru = i
}

// Invalidate drops vp's entry, if any (a TLB shootdown).
func (t *TLB) Invalidate(vp mem.VPage) {
	if i := t.find(tlbKey(vp)); i >= 0 {
		t.clear(i)
	}
}

func (t *TLB) clear(i int) {
	t.slots[i] = tlbSlot{}
	t.n--
}
