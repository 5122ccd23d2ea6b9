package node

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prism/internal/mem"
)

// mapTLB is the map-based LRU TLB the slot array replaced, kept as the
// reference model: entries and LRU stamps in two maps, eviction by a
// scan for the smallest stamp with a page-order tie-break.
type mapTLB struct {
	cap     int
	entries map[mem.VPage]mem.FrameID
	lru     map[mem.VPage]uint64
	clock   uint64
}

func newMapTLB(capacity int) *mapTLB {
	return &mapTLB{
		cap:     capacity,
		entries: make(map[mem.VPage]mem.FrameID, capacity),
		lru:     make(map[mem.VPage]uint64, capacity),
	}
}

func (t *mapTLB) lookup(vp mem.VPage) (mem.FrameID, bool) {
	f, ok := t.entries[vp]
	if ok {
		t.clock++
		t.lru[vp] = t.clock
	}
	return f, ok
}

func (t *mapTLB) insert(vp mem.VPage, f mem.FrameID) {
	if len(t.entries) >= t.cap {
		var victim mem.VPage
		first := true
		var min uint64
		for e, c := range t.lru {
			if first || c < min || (c == min && vpLess(e, victim)) {
				victim, min, first = e, c, false
			}
		}
		delete(t.entries, victim)
		delete(t.lru, victim)
	}
	t.clock++
	t.entries[vp] = f
	t.lru[vp] = t.clock
}

func vpLess(a, b mem.VPage) bool {
	if a.Seg != b.Seg {
		return a.Seg < b.Seg
	}
	return a.Page < b.Page
}

func (t *mapTLB) invalidate(vp mem.VPage) {
	delete(t.entries, vp)
	delete(t.lru, vp)
}

func (t *mapTLB) exportState() TLBState {
	s := TLBState{Clock: t.clock}
	for vp, f := range t.entries {
		s.Entries = append(s.Entries, TLBEntryState{Seg: vp.Seg, Page: vp.Page, Frame: f, LRU: t.lru[vp]})
	}
	sort.Slice(s.Entries, func(i, j int) bool {
		return vpLess(mem.VPage{Seg: s.Entries[i].Seg, Page: s.Entries[i].Page},
			mem.VPage{Seg: s.Entries[j].Seg, Page: s.Entries[j].Page})
	})
	return s
}

// evicted returns the pages present in before but not in after.
func evicted(before, after TLBState) []mem.VPage {
	in := map[mem.VPage]bool{}
	for _, e := range after.Entries {
		in[mem.VPage{Seg: e.Seg, Page: e.Page}] = true
	}
	var out []mem.VPage
	for _, e := range before.Entries {
		if vp := (mem.VPage{Seg: e.Seg, Page: e.Page}); !in[vp] {
			out = append(out, vp)
		}
	}
	return out
}

// TestTLBMatchesMapModel drives the slot-array TLB and the map-based
// reference with one seeded stream of lookups, inserts (including
// re-inserts of resident pages) and invalidations, and requires the
// same hits, the same evicted pages and identical exported state after
// every step. The TLB is then rebuilt through importState, must export
// the same state, and must keep matching the model.
func TestTLBMatchesMapModel(t *testing.T) {
	for _, capacity := range []int{1, 4, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		want := newMapTLB(capacity)
		// A page universe a few times the capacity, over two segments,
		// keeps both hits and evictions frequent.
		page := func() mem.VPage {
			return mem.VPage{Seg: mem.VSID(1 + rng.Intn(2)), Page: uint32(rng.Intn(3 * capacity))}
		}
		drive := func(got *TLB, steps int) {
			for step := 0; step < steps; step++ {
				vp := page()
				before := want.exportState()
				switch op := rng.Intn(10); {
				case op < 6:
					gf, gok := got.Lookup(vp)
					wf, wok := want.lookup(vp)
					if gf != wf || gok != wok {
						t.Fatalf("cap %d step %d: lookup %v = (%d,%v), model (%d,%v)", capacity, step, vp, gf, gok, wf, wok)
					}
				case op < 9:
					f := mem.FrameID(rng.Intn(1 << 20))
					got.Insert(vp, f)
					want.insert(vp, f)
				default:
					got.Invalidate(vp)
					want.invalidate(vp)
				}
				gs, ws := got.exportState(), want.exportState()
				if ge, we := evicted(before, gs), evicted(before, ws); !reflect.DeepEqual(ge, we) {
					t.Fatalf("cap %d step %d: evicted %v, model %v", capacity, step, ge, we)
				}
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("cap %d step %d: state\n%+v\nmodel\n%+v", capacity, step, gs, ws)
				}
			}
		}
		got := NewTLB(capacity)
		drive(got, 10000)
		s := got.exportState()
		back := NewTLB(capacity)
		back.importState(s)
		if rs := back.exportState(); !reflect.DeepEqual(rs, s) {
			t.Fatalf("cap %d: import/export round trip\n%+v\nwant\n%+v", capacity, rs, s)
		}
		drive(back, 2000)
	}
}
