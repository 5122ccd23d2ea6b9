package kernel

import (
	"fmt"
	"sort"

	"prism/internal/mem"
	"prism/internal/pit"
)

// Serializable kernel state. Every table exports as a slice in
// ascending key order so the JSON encoding is deterministic: the dense
// page and frame tables iterate in that order, the page-table map is
// sorted. In-flight state (inProgress, pageBusy, pendingIn, unmapWait,
// migrating) holds host closures and is never captured: the capture
// layer checks Quiesced first. Segment attachments are not captured either — they are
// re-created deterministically by machine construction and workload
// setup before state import.

// PTEState is one page-table mapping.
type PTEState struct {
	Seg   mem.VSID
	Page  uint32
	Frame mem.FrameID
	Mode  uint8
}

// SoftTLBState is the software TLB, exported verbatim: its contents
// cannot change simulated results, but its hit/miss counters feed the
// "tlb" metrics component, so resident-set differences would change
// metrics exports.
type SoftTLBState struct {
	Keys  []uint64
	PTEs  []PTEState // Seg/Page unused; Frame/Mode per slot
	Stats TLBStats
}

// FrameBindingState is one frame's binding record.
type FrameBindingState struct {
	Frame  mem.FrameID
	VPSeg  mem.VSID
	VPPage uint32
	GSeg   mem.GSID
	GPage  uint32
	Client bool
}

// GPageEntry carries a per-page scalar (mode, hint, flag, frame or
// node depending on the slice it appears in).
type GPageEntry struct {
	Seg   mem.GSID
	Page  uint32
	Value uint64
}

// HomePageState is one home page's client bookkeeping.
type HomePageState struct {
	Seg    mem.GSID
	Page   uint32
	Frame  mem.FrameID
	Known  mem.NodeSet
	Mapped mem.NodeSet
}

// MigRecordState is one migrated-away record at a static home.
type MigRecordState struct {
	Seg   mem.GSID
	Page  uint32
	Node  mem.NodeID
	Frame mem.FrameID
}

// KernelState is one node kernel's complete serializable state.
type KernelState struct {
	PT  []PTEState
	TLB SoftTLBState

	FreeReal  []mem.FrameID
	NextReal  mem.FrameID
	NextImag  mem.FrameID
	RealInUse int

	ClientSCOMA     int
	ClientSCOMAHigh int
	Frames          []FrameBindingState

	PageMode      []GPageEntry // Value = pit.Mode
	HomeStatus    []GPageEntry // set membership; Value unused
	HomeFrameHint []GPageEntry // Value = frame
	DynHomeHint   []GPageEntry // Value = node
	HomePages     []HomePageState
	MigratedAway  []MigRecordState
	DynPages      []GPageEntry // Value = frame

	Stats Stats
}

// Quiesced reports whether the kernel has no in-flight fault, page-out,
// page-in, unmap or migration work (part of the capture layer's
// quiescence predicate).
func (k *Kernel) Quiesced() bool {
	return len(k.inProgress) == 0 && k.pageBusy.Len() == 0 && k.pendingIn.Len() == 0 &&
		k.unmapWait.Len() == 0 && k.migrating.Len() == 0
}

// exportGP lists a page table's entries in its ascending (seg, page)
// order, mapping each value to its exported scalar. It returns nil for
// an empty table so the JSON stays null.
func exportGP[T any](t *mem.PageTable[T], value func(T) uint64) []GPageEntry {
	var out []GPageEntry
	t.Range(func(g mem.GPage, v *T) {
		out = append(out, GPageEntry{Seg: g.Seg, Page: g.Page, Value: value(*v)})
	})
	return out
}

// importGP rebuilds a page table from its exported entries.
func importGP[T any](t *mem.PageTable[T], s []GPageEntry, value func(uint64) T) {
	t.Clear()
	for _, e := range s {
		t.Set(mem.GPage{Seg: e.Seg, Page: e.Page}, value(e.Value))
	}
}

// ExportState captures the kernel. It panics if the kernel is not
// quiescent or any frame binding is mid-page-out.
func (k *Kernel) ExportState() KernelState {
	if !k.Quiesced() {
		panic(fmt.Sprintf("kernel: node %d ExportState while not quiescent", k.node))
	}
	s := KernelState{
		FreeReal:        append([]mem.FrameID(nil), k.freeReal...),
		NextReal:        k.nextReal,
		NextImag:        k.nextImag,
		RealInUse:       k.realInUse,
		ClientSCOMA:     k.clientSCOMA,
		ClientSCOMAHigh: k.clientSCOMAHigh,
		Stats:           k.Stats,
	}
	for vp, pte := range k.pt {
		s.PT = append(s.PT, PTEState{Seg: vp.Seg, Page: vp.Page, Frame: pte.Frame, Mode: uint8(pte.Mode)})
	}
	sort.Slice(s.PT, func(i, j int) bool {
		a, b := s.PT[i], s.PT[j]
		return a.Seg < b.Seg || a.Seg == b.Seg && a.Page < b.Page
	})
	s.TLB = SoftTLBState{
		Keys:  append([]uint64(nil), k.tlb.keys...),
		PTEs:  make([]PTEState, len(k.tlb.ptes)),
		Stats: k.tlb.Stats,
	}
	for i, pte := range k.tlb.ptes {
		s.TLB.PTEs[i] = PTEState{Frame: pte.Frame, Mode: uint8(pte.Mode)}
	}
	k.frames.Range(func(key mem.GPage, fb *frameBinding) {
		f := keyFrame(key)
		if fb.busy {
			panic(fmt.Sprintf("kernel: node %d ExportState with busy frame %d", k.node, f))
		}
		s.Frames = append(s.Frames, FrameBindingState{
			Frame: f, VPSeg: fb.vp.Seg, VPPage: fb.vp.Page,
			GSeg: fb.page.Seg, GPage: fb.page.Page, Client: fb.client,
		})
	})
	s.PageMode = exportGP(&k.pageMode, func(m pit.Mode) uint64 { return uint64(m) })
	s.HomeStatus = exportGP(&k.homeStatus, func(struct{}) uint64 { return 0 })
	s.HomeFrameHint = exportGP(&k.homeFrameHint, func(f mem.FrameID) uint64 { return uint64(f) })
	s.DynHomeHint = exportGP(&k.dynHomeHint, func(n mem.NodeID) uint64 { return uint64(n) })
	s.DynPages = exportGP(&k.dynPages, func(f mem.FrameID) uint64 { return uint64(f) })
	k.homePages.Range(func(g mem.GPage, hp **homePage) {
		s.HomePages = append(s.HomePages, HomePageState{Seg: g.Seg, Page: g.Page, Frame: (*hp).frame, Known: (*hp).known, Mapped: (*hp).mapped})
	})
	k.migratedAway.Range(func(g mem.GPage, rec *migRecord) {
		s.MigratedAway = append(s.MigratedAway, MigRecordState{Seg: g.Seg, Page: g.Page, Node: rec.node, Frame: rec.frame})
	})
	return s
}

// ImportState restores the kernel over a freshly built machine (the
// segment attachments must already be in place from setup).
func (k *Kernel) ImportState(s KernelState) {
	k.pt = make(map[mem.VPage]PTE, len(s.PT))
	k.tlb = newSoftTLB()
	for _, e := range s.PT {
		k.pt[mem.VPage{Seg: e.Seg, Page: e.Page}] = PTE{Frame: e.Frame, Mode: pit.Mode(e.Mode)}
	}
	copy(k.tlb.keys, s.TLB.Keys)
	for i, e := range s.TLB.PTEs {
		k.tlb.ptes[i] = PTE{Frame: e.Frame, Mode: pit.Mode(e.Mode)}
	}
	k.tlb.Stats = s.TLB.Stats

	k.freeReal = append(k.freeReal[:0], s.FreeReal...)
	k.nextReal = s.NextReal
	k.nextImag = s.NextImag
	k.realInUse = s.RealInUse
	k.clientSCOMA = s.ClientSCOMA
	k.clientSCOMAHigh = s.ClientSCOMAHigh

	k.frames.Clear()
	for _, e := range s.Frames {
		k.bindFrame(e.Frame, mem.VPage{Seg: e.VPSeg, Page: e.VPPage}, mem.GPage{Seg: e.GSeg, Page: e.GPage}, e.Client)
	}
	importGP(&k.pageMode, s.PageMode, func(v uint64) pit.Mode { return pit.Mode(v) })
	importGP(&k.homeStatus, s.HomeStatus, func(uint64) struct{} { return struct{}{} })
	importGP(&k.homeFrameHint, s.HomeFrameHint, func(v uint64) mem.FrameID { return mem.FrameID(v) })
	importGP(&k.dynHomeHint, s.DynHomeHint, func(v uint64) mem.NodeID { return mem.NodeID(v) })
	importGP(&k.dynPages, s.DynPages, func(v uint64) mem.FrameID { return mem.FrameID(v) })
	k.homePages.Clear()
	for _, e := range s.HomePages {
		k.homePages.Set(mem.GPage{Seg: e.Seg, Page: e.Page}, &homePage{frame: e.Frame, known: e.Known, mapped: e.Mapped})
	}
	k.migratedAway.Clear()
	for _, e := range s.MigratedAway {
		k.migratedAway.Set(mem.GPage{Seg: e.Seg, Page: e.Page}, migRecord{node: e.Node, frame: e.Frame})
	}
	k.inProgress = make(map[mem.VPage][]faultCont)
	k.pageBusy.Clear()
	k.pendingIn.Clear()
	k.unmapWait.Clear()
	k.migrating.Clear()
	k.Stats = s.Stats
}
