package overlay

import (
	"slices"
	"sort"

	"sparqluo/internal/store"
)

// delta is an immutable sorted index over one resolved side of the
// memtable (either the net inserts or the net tombstones): the triple
// set in SPO, POS and OSP order — the store.SortedDelta a compaction
// hands to store.MergeFold as is — plus each run's trailing component
// extracted into an aligned column, mirroring the base store's layout
// so range accessors hand out zero-copy []ID views. Deltas are small (a
// memtable's worth), so lookups are binary searches rather than CSR row
// pointers — a CSR offset array over the dense dictionary ID space
// would cost O(dict) memory per view, which a per-write-batch structure
// cannot afford.
type delta struct {
	store.SortedDelta
	colO, colS, colP []store.ID // trailing components of SPO, POS, OSP
}

// emptyDelta is shared by views with nothing on one side, so accessors
// never need nil checks.
var emptyDelta = &delta{}

// newDelta indexes a resolved, duplicate-free triple set. It takes
// ownership of tris. This is the only place a delta is sorted: readers
// and the compaction fold both consume these runs.
func newDelta(tris []store.EncTriple) *delta {
	if len(tris) == 0 {
		return emptyDelta
	}
	mk := func(tris []store.EncTriple, cmp func(a, b store.EncTriple) int,
		colOf func(store.EncTriple) store.ID) ([]store.EncTriple, []store.ID) {
		slices.SortFunc(tris, cmp)
		col := make([]store.ID, len(tris))
		for i, t := range tris {
			col[i] = colOf(t)
		}
		return tris, col
	}
	d := &delta{}
	d.POS, d.colS = mk(slices.Clone(tris), store.ComparePOS, leadS)
	d.OSP, d.colP = mk(slices.Clone(tris), store.CompareOSP, leadP)
	d.SPO, d.colO = mk(tris, store.CompareSPO, leadO)
	return d
}

// bytes reports the memory footprint of the three permutations.
func (d *delta) bytes() int64 {
	const triSize, idSize = 12, 4
	return 3 * int64(d.Len()) * (triSize + idSize)
}

func (d *delta) contains(s, p, o store.ID) bool {
	_, ok := slices.BinarySearchFunc(d.SPO, store.EncTriple{S: s, P: p, O: o}, store.CompareSPO)
	return ok
}

// run1 returns the [lo,hi) range of tri whose leading component (as
// read by lead) equals id; tri must be sorted with that component
// leading.
func run1(tri []store.EncTriple, id store.ID, lead func(store.EncTriple) store.ID) (int, int) {
	lo := sort.Search(len(tri), func(i int) bool { return lead(tri[i]) >= id })
	hi := sort.Search(len(tri), func(i int) bool { return lead(tri[i]) > id })
	return lo, hi
}

// run2 narrows tri[lo:hi) to the range whose second component (as read
// by mid) equals id; the input range must be sorted by that component.
func run2(tri []store.EncTriple, lo, hi int, id store.ID, mid func(store.EncTriple) store.ID) (int, int) {
	a := lo + sort.Search(hi-lo, func(i int) bool { return mid(tri[lo+i]) >= id })
	b := lo + sort.Search(hi-lo, func(i int) bool { return mid(tri[lo+i]) > id })
	return a, b
}

func leadS(t store.EncTriple) store.ID { return t.S }
func leadP(t store.EncTriple) store.ID { return t.P }
func leadO(t store.EncTriple) store.ID { return t.O }

// The accessors below mirror the base store's contract exactly:
// ascending-ID column views, permutation-sorted triple slices.

func (d *delta) objectsSP(s, p store.ID) []store.ID {
	lo, hi := run1(d.SPO, s, leadS)
	a, b := run2(d.SPO, lo, hi, p, leadP)
	return d.colO[a:b]
}

func (d *delta) subjectsPO(p, o store.ID) []store.ID {
	lo, hi := run1(d.POS, p, leadP)
	a, b := run2(d.POS, lo, hi, o, leadO)
	return d.colS[a:b]
}

func (d *delta) predsSO(s, o store.ID) []store.ID {
	lo, hi := run1(d.OSP, o, leadO)
	a, b := run2(d.OSP, lo, hi, s, leadS)
	return d.colP[a:b]
}

func (d *delta) subjectTriples(s store.ID) []store.EncTriple {
	lo, hi := run1(d.SPO, s, leadS)
	return d.SPO[lo:hi]
}

func (d *delta) predicateTriples(p store.ID) []store.EncTriple {
	lo, hi := run1(d.POS, p, leadP)
	return d.POS[lo:hi]
}

func (d *delta) objectTriples(o store.ID) []store.EncTriple {
	lo, hi := run1(d.OSP, o, leadO)
	return d.OSP[lo:hi]
}

func (d *delta) countS(s store.ID) int {
	lo, hi := run1(d.SPO, s, leadS)
	return hi - lo
}

func (d *delta) countP(p store.ID) int {
	lo, hi := run1(d.POS, p, leadP)
	return hi - lo
}

func (d *delta) countO(o store.ID) int {
	lo, hi := run1(d.OSP, o, leadO)
	return hi - lo
}
