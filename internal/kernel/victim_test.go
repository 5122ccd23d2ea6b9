package kernel

import (
	"testing"

	"prism/internal/coherence"
	"prism/internal/directory"
	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/sim"
)

// mkBoundKernel is mkKernel with a controller bound, so the victim
// queries can read PIT entries. No node hardware is attached.
func mkBoundKernel(t testing.TB, frames int) *Kernel {
	t.Helper()
	k := mkKernel(t, frames)
	p := pit.New(k.node, k.geom, pit.DefaultConfig)
	d := directory.New(k.node, k.geom, directory.DefaultConfig)
	ctrl := coherence.New(k.e, k.node, k.geom, k.tm, coherence.Config{}, p, d, k.net, &sim.Resource{}, nil, k.reg, k)
	k.Bind(ctrl, nil)
	return k
}

// bindClient binds frame f as a client S-COMA page (all lines Invalid)
// last touched at lastAccess, the way clientFault's bind step does.
func bindClient(k *Kernel, f mem.FrameID, page uint32, lastAccess sim.Time) {
	g := mem.GPage{Seg: 1, Page: page}
	k.bindFrame(f, mem.VPage{Seg: 1, Page: page}, g, true)
	k.ctrl.PIT.Insert(f, pit.Entry{Mode: pit.ModeSCOMA, GPage: g, LastAccess: lastAccess, Caps: mem.AllNodes()})
}

// TestVictimTiesGoToLowestFrame pins the victim queries' tie-break:
// among equally good candidates the lowest FrameID wins, across the
// real and imaginary halves of the frame table and regardless of
// binding order; non-client, busy and in-transit frames never win.
func TestVictimTiesGoToLowestFrame(t *testing.T) {
	k := mkBoundKernel(t, 64)
	// Bound out of order: two imaginary frames, then real ones.
	bindClient(k, imagBase+3, 10, 5)
	bindClient(k, imagBase+1, 11, 5)
	bindClient(k, 9, 12, 5)
	bindClient(k, 4, 13, 5)
	bindClient(k, 7, 14, 5)
	// Frame 2 is a home frame, not a client: never a victim even though
	// it is the lowest and oldest.
	g := mem.GPage{Seg: 1, Page: 20}
	k.bindFrame(2, mem.VPage{}, g, false)
	k.ctrl.PIT.Insert(2, pit.Entry{Mode: pit.ModeSCOMA, GPage: g, LastAccess: 0, Caps: mem.AllNodes()})

	want := func(name string, q func() (mem.FrameID, bool), f mem.FrameID) {
		t.Helper()
		if got, ok := q(); !ok || got != f {
			t.Fatalf("%s = %d,%v, want %d", name, got, ok, f)
		}
	}
	want("LRUVictim", k.LRUVictim, 4)
	want("MostInvalidVictim", k.MostInvalidVictim, 4)

	// The lowest frame busy (paging out) or in transit: the next wins.
	k.frame(4).busy = true
	want("LRUVictim busy", k.LRUVictim, 7)
	k.frame(4).busy = false
	k.ctrl.PIT.SetTag(4, 0, pit.TagTransit)
	want("MostInvalidVictim transit", k.MostInvalidVictim, 7)
	k.ctrl.PIT.SetTag(4, 0, pit.TagInvalid)

	// Strictly better candidates win wherever they sit.
	k.ctrl.PIT.Entry(9).LastAccess = 1
	want("LRUVictim older", k.LRUVictim, 9)
	k.ctrl.PIT.SetTag(4, 0, pit.TagShared)
	k.ctrl.PIT.SetTag(7, 0, pit.TagShared)
	k.ctrl.PIT.SetTag(9, 0, pit.TagShared)
	want("MostInvalidVictim imaginary", k.MostInvalidVictim, imagBase+1)

	// Ties among imaginary frames also go to the lowest.
	k.ctrl.PIT.Entry(imagBase + 1).LastAccess = 0
	k.ctrl.PIT.Entry(imagBase + 3).LastAccess = 0
	want("LRUVictim imaginary tie", k.LRUVictim, imagBase+1)
}
