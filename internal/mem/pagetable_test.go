package mem

import (
	"reflect"
	"testing"
)

func TestPageTableSetGetDelete(t *testing.T) {
	var pt PageTable[int]
	a, b := GPage{Seg: 1, Page: 3}, GPage{Seg: 2, Page: 3}
	if _, ok := pt.Get(a); ok || pt.Len() != 0 || pt.Ptr(a) != nil {
		t.Fatal("empty table reports a page")
	}
	pt.Set(a, 7)
	pt.Set(b, 9)
	pt.Set(a, 8) // overwrite does not add a page
	if v, ok := pt.Get(a); !ok || v != 8 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if pt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pt.Len())
	}
	*pt.Ptr(b) += 1
	if v, _ := pt.Get(b); v != 10 {
		t.Fatalf("update through Ptr lost: %d", v)
	}
	pt.Delete(a)
	pt.Delete(a) // absent: no-op
	pt.Delete(GPage{Seg: 9, Page: 1 << 30})
	if pt.Has(a) || !pt.Has(b) || pt.Len() != 1 {
		t.Fatalf("after delete: has(a)=%v has(b)=%v len=%d", pt.Has(a), pt.Has(b), pt.Len())
	}
	pt.Clear()
	if pt.Len() != 0 || pt.Has(b) {
		t.Fatal("Clear left pages behind")
	}
}

// TestPageTablePresenceDistinctFromZero pins that a page stored with
// the zero value is present, and that Delete zeroes the slot so a
// later Ensure starts from the zero value.
func TestPageTablePresenceDistinctFromZero(t *testing.T) {
	var pt PageTable[[]int]
	g := GPage{Seg: 1, Page: 5}
	pt.Set(g, nil)
	if v, ok := pt.Get(g); !ok || v != nil {
		t.Fatalf("zero value stored: Get = %v,%v", v, ok)
	}
	if !pt.Has(g) || pt.Len() != 1 {
		t.Fatal("zero-valued page not present")
	}
	if pt.Has(GPage{Seg: 1, Page: 4}) {
		t.Fatal("neighbour in the same chunk reported present")
	}
	*pt.Ensure(g) = append(*pt.Ensure(g), 1, 2)
	pt.Delete(g)
	if p := pt.Ensure(g); *p != nil {
		t.Fatalf("deleted slot kept its value: %v", *p)
	}
}

// TestPageTableRangeOrder pins ascending (segment, page) iteration
// across segments and chunks, whatever the insertion order.
func TestPageTableRangeOrder(t *testing.T) {
	var pt PageTable[uint32]
	pages := []GPage{
		{Seg: 3, Page: 0}, {Seg: 1, Page: 200}, {Seg: 1, Page: 7},
		{Seg: 2, Page: 64}, {Seg: 1, Page: 63}, {Seg: 2, Page: 63}, {Seg: 0, Page: 1},
	}
	for _, g := range pages {
		pt.Set(g, g.Page)
	}
	var got []GPage
	pt.Range(func(g GPage, v *uint32) {
		if *v != g.Page {
			t.Fatalf("Range handed %v the value %d", g, *v)
		}
		got = append(got, g)
	})
	want := []GPage{
		{Seg: 0, Page: 1}, {Seg: 1, Page: 7}, {Seg: 1, Page: 63}, {Seg: 1, Page: 200},
		{Seg: 2, Page: 63}, {Seg: 2, Page: 64}, {Seg: 3, Page: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Range order %v, want %v", got, want)
	}
	// Deleting the page being visited is allowed.
	pt.Range(func(g GPage, _ *uint32) {
		if g.Seg == 1 {
			pt.Delete(g)
		}
	})
	if pt.Len() != 4 || pt.Has(GPage{Seg: 1, Page: 7}) {
		t.Fatalf("delete during Range: len %d", pt.Len())
	}
}

// TestPageTableSparseChunks pins that far-apart pages allocate only
// their own chunks, not the ones between them.
func TestPageTableSparseChunks(t *testing.T) {
	var pt PageTable[int]
	lo, hi := GPage{Seg: 1, Page: 0}, GPage{Seg: 1, Page: 1 << 20}
	pt.Set(lo, 1)
	pt.Set(hi, 2)
	chunks := 0
	for _, dir := range pt.segs {
		for _, c := range dir {
			if c != nil {
				chunks++
			}
		}
	}
	if chunks != 2 {
		t.Fatalf("%d chunks allocated for two far-apart pages, want 2", chunks)
	}
	if v, _ := pt.Get(hi); v != 2 || pt.Has(GPage{Seg: 1, Page: 1 << 19}) {
		t.Fatal("far page lost or gap page present")
	}
}
