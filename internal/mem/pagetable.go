package mem

import "math/bits"

// PageTable is a dense table of per-page state keyed by global page,
// the software analogue of PRISM's frame-indexed tables (§3.3). Each
// segment owns a directory of 64-page chunks, allocated on first write
// and never moved or freed, so a pointer from Ptr or Ensure stays valid
// until its page is deleted. Presence is tracked apart from the value
// (a page stored with T's zero value is present), and Range visits
// pages in ascending (segment, page) order, so callers never sort.
//
// The zero value is an empty table. It is not safe for concurrent use.
type PageTable[T any] struct {
	segs [][]*pageChunk[T] // segs[seg][page/64]
	n    int
}

type pageChunk[T any] struct {
	live uint64 // bit i set: vals[i] is present
	vals [64]T
}

// slot returns g's chunk (nil if never allocated) and g's bit in it.
func (t *PageTable[T]) slot(g GPage) (*pageChunk[T], uint64) {
	bit := uint64(1) << (g.Page % 64)
	if int(g.Seg) < len(t.segs) {
		if dir, ci := t.segs[g.Seg], int(g.Page/64); ci < len(dir) {
			return dir[ci], bit
		}
	}
	return nil, bit
}

// Ptr returns a pointer to g's value, or nil if g is absent.
func (t *PageTable[T]) Ptr(g GPage) *T {
	if c, bit := t.slot(g); c != nil && c.live&bit != 0 {
		return &c.vals[g.Page%64]
	}
	return nil
}

// Get returns g's value and whether g is present.
func (t *PageTable[T]) Get(g GPage) (v T, ok bool) {
	if p := t.Ptr(g); p != nil {
		return *p, true
	}
	return v, false
}

// Has reports whether g is present.
func (t *PageTable[T]) Has(g GPage) bool { return t.Ptr(g) != nil }

// Ensure returns a pointer to g's value, first storing T's zero value
// if g is absent.
func (t *PageTable[T]) Ensure(g GPage) *T {
	if n := int(g.Seg) + 1 - len(t.segs); n > 0 {
		t.segs = append(t.segs, make([][]*pageChunk[T], n)...)
	}
	dir := t.segs[g.Seg]
	if n := int(g.Page/64) + 1 - len(dir); n > 0 {
		dir = append(dir, make([]*pageChunk[T], n)...)
		t.segs[g.Seg] = dir
	}
	c := dir[g.Page/64]
	if c == nil {
		c = new(pageChunk[T])
		dir[g.Page/64] = c
	}
	if bit := uint64(1) << (g.Page % 64); c.live&bit == 0 {
		c.live |= bit
		t.n++
	}
	return &c.vals[g.Page%64]
}

// Set stores v as g's value.
func (t *PageTable[T]) Set(g GPage, v T) { *t.Ensure(g) = v }

// Delete removes g, zeroing its slot so the table retains nothing the
// value referenced. Deleting an absent page is a no-op.
func (t *PageTable[T]) Delete(g GPage) {
	if c, bit := t.slot(g); c != nil && c.live&bit != 0 {
		c.live &^= bit
		var zero T
		c.vals[g.Page%64] = zero
		t.n--
	}
}

// Len returns the number of present pages.
func (t *PageTable[T]) Len() int { return t.n }

// Clear removes every page and releases the table's storage.
func (t *PageTable[T]) Clear() { *t = PageTable[T]{} }

// Range calls fn for every present page in ascending (segment, page)
// order. fn may update the value through its pointer and may delete
// the page it was handed, but must not add pages.
func (t *PageTable[T]) Range(fn func(g GPage, v *T)) {
	for seg, dir := range t.segs {
		for ci, c := range dir {
			if c == nil {
				continue
			}
			for live := c.live; live != 0; live &= live - 1 {
				i := bits.TrailingZeros64(live)
				fn(GPage{Seg: GSID(seg), Page: uint32(ci*64 + i)}, &c.vals[i])
			}
		}
	}
}
