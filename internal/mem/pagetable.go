package mem

import "sort"

// pageTable is a page table: its entries sorted by virtual page number.
//
// A sorted slice rather than a Go map because the table is cloned far more
// often than it grows. Every Checkpoint clones it, and so does every Fork;
// with the physmap a demand-zero window, a booted kernel's table holds only
// a few hundred entries, so a clone is one copy of a few kilobytes where a
// map clone rehashed every entry. Lookups are a binary search over those
// few hundred entries and sit behind the data TLB on the hot path; inserts
// and deletes shift the tail, and happen only on structural changes.
type pageTable []pte

// pte is one slot of a pageTable.
type pte struct {
	vpn uint64
	pg  *page
}

// find returns the index of v's entry, or where it would be inserted.
func (t pageTable) find(v uint64) (int, bool) {
	i := sort.Search(len(t), func(i int) bool { return t[i].vpn >= v })
	return i, i < len(t) && t[i].vpn == v
}

// get returns v's entry, if it has one.
func (t pageTable) get(v uint64) (*page, bool) {
	if i, ok := t.find(v); ok {
		return t[i].pg, true
	}
	return nil, false
}

// set installs pg as v's entry.
func (t *pageTable) set(v uint64, pg *page) {
	i, ok := t.find(v)
	if ok {
		(*t)[i].pg = pg
		return
	}
	*t = append(*t, pte{})
	copy((*t)[i+1:], (*t)[i:])
	(*t)[i] = pte{vpn: v, pg: pg}
}

// del removes v's entry, if it has one.
func (t *pageTable) del(v uint64) {
	if i, ok := t.find(v); ok {
		*t = append((*t)[:i], (*t)[i+1:]...)
	}
}

// clone returns an independent copy sharing the immutable page structs.
// It is never nil, so a checkpoint of an empty table still reads as armed.
func (t pageTable) clone() pageTable {
	return append(make(pageTable, 0, len(t)), t...)
}
