package node

import (
	"testing"

	"prism/internal/mem"
)

func TestTLBInsertLookup(t *testing.T) {
	tb := NewTLB(4)
	for i := 0; i < 4; i++ {
		tb.Insert(mem.VPage{Seg: 1, Page: uint32(i)}, mem.FrameID(i))
	}
	for i := 0; i < 4; i++ {
		f, ok := tb.Lookup(mem.VPage{Seg: 1, Page: uint32(i)})
		if !ok || f != mem.FrameID(i) {
			t.Fatalf("lookup %d: %d %v", i, f, ok)
		}
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tb := NewTLB(2)
	a := mem.VPage{Seg: 1, Page: 0}
	b := mem.VPage{Seg: 1, Page: 1}
	c := mem.VPage{Seg: 1, Page: 2}
	tb.Insert(a, 0)
	tb.Insert(b, 1)
	tb.Lookup(a) // a is MRU
	tb.Insert(c, 2)
	if _, ok := tb.Lookup(b); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := tb.Lookup(a); !ok {
		t.Error("MRU entry evicted")
	}
	if _, ok := tb.Lookup(c); !ok {
		t.Error("new entry missing")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tb := NewTLB(4)
	vp := mem.VPage{Seg: 2, Page: 9}
	tb.Insert(vp, 7)
	tb.Invalidate(vp)
	if _, ok := tb.Lookup(vp); ok {
		t.Error("invalidated entry found")
	}
	tb.Invalidate(vp) // idempotent
}

func TestTLBDeterministicEviction(t *testing.T) {
	// Two entries inserted in one "burst" have distinct clocks, so
	// eviction order is deterministic across runs.
	runOnce := func() []uint32 {
		tb := NewTLB(3)
		for i := 0; i < 10; i++ {
			tb.Insert(mem.VPage{Seg: 1, Page: uint32(i)}, mem.FrameID(i))
		}
		var present []uint32
		for i := 0; i < 10; i++ {
			if _, ok := tb.Lookup(mem.VPage{Seg: 1, Page: uint32(i)}); ok {
				present = append(present, uint32(i))
			}
		}
		return present
	}
	a, b := runOnce(), runOnce()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("capacity violated: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

func TestSyncSegmentBytes(t *testing.T) {
	g := mem.DefaultGeometry
	want := uint64((1<<15 + 1<<12) * 64)
	if SyncSegmentBytes(g) != want {
		t.Fatalf("sync segment %d, want %d", SyncSegmentBytes(g), want)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(mem.DefaultGeometry)
	if cfg.Procs != 4 {
		t.Errorf("procs %d, want 4 (the paper's SMP node)", cfg.Procs)
	}
	if cfg.L1.Size != 8<<10 || cfg.L2.Size != 32<<10 {
		t.Errorf("caches %d/%d, want 8K/32K (§4.2)", cfg.L1.Size, cfg.L2.Size)
	}
	if err := cfg.L1.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.L2.Validate(); err != nil {
		t.Error(err)
	}
}
