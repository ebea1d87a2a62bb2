package store

import (
	"errors"
	"math"
	"slices"

	"sparqluo/internal/rdf"
)

// ErrTooManyTriples is returned by the bulk-build entry points
// (FromTriples, FromRDF, MergeFold) when the triple set would exceed
// the int32 CSR row-pointer range. A load that large is a clean
// failure, never a server crash.
var ErrTooManyTriples = errors.New("store: triple count exceeds int32 offset range")

// EncTriple is a dictionary-encoded triple.
type EncTriple struct {
	S, P, O ID
}

// Store is an in-memory, dictionary-encoded triple store with a columnar
// sorted-permutation layout. It is built once, from a complete triple
// set (FromTriples, MergeFold) or a prebuilt layout (FromLayout): the
// build sorts and deduplicates the triples and derives three flat
// permutations of the triple set plus its statistics:
//
//	spo — sorted (S,P,O): (s p ?) (s ? ?) (s p o)
//	pos — sorted (P,O,S): (? p o) (? p ?)
//	osp — sorted (O,S,P): (? ? o) (s ? o)
//	spo (canonical order)           (? ? ?)
//
// Each permutation is a contiguous []EncTriple plus a CSR-style
// row-pointer array over the dense dictionary ID space (level-1 lookup
// is one indexed load) and a flat copy of its trailing component, so
// every access path is at most a binary search over contiguous memory
// and range accessors return zero-copy sub-slices. Sorted order
// doubles as the deterministic iteration order that reproducible
// sampling, plan selection and byte-identical results rely on; no side
// ordering structures are needed.
//
// A Store is immutable by construction and safe for concurrent readers.
type Store struct {
	dict *Dict

	spo perm // sorted (S,P,O); canonical, deduplicated
	pos perm // sorted (P,O,S)
	osp perm // sorted (O,S,P)

	stats *Stats
}

// perm is one sorted permutation of the triple set. tri holds the full
// set in permutation order. off is a CSR-style row-pointer array over
// the dense dictionary ID space: the triples whose leading component is
// id occupy tri[off[id]:off[id+1]], so the level-1 lookup is a single
// indexed load (no search; dictionary IDs are dense). col is the
// trailing component of every triple extracted into a flat column,
// aligned with tri, so range lookups hand out zero-copy []ID views.
type perm struct {
	tri []EncTriple
	off []int32 // len = maxID+2; off[0] = 0 (ID 0 is the None sentinel)
	col []ID
}

// run returns the [lo,hi) range of triples whose leading component is id.
func (x *perm) run(id ID) (int, int) {
	if int(id) >= len(x.off)-1 {
		return 0, 0
	}
	return int(x.off[id]), int(x.off[id+1])
}

// bytes reports the memory footprint of the permutation's arrays.
func (x *perm) bytes() int64 {
	const triSize, idSize, offSize = 12, 4, 4
	return int64(len(x.tri))*triSize + int64(len(x.off))*offSize +
		int64(len(x.col))*idSize
}

// makePerm builds the row-pointer index and trailing column of a triple
// slice sorted by its leading component. keyOf/colOf select the leading
// and trailing components for this permutation; maxID is the largest
// dictionary ID.
func makePerm(tri []EncTriple, maxID int, keyOf, colOf func(EncTriple) ID) perm {
	x := perm{tri: tri, off: make([]int32, maxID+2), col: make([]ID, len(tri))}
	for i, t := range tri {
		x.col[i] = colOf(t)
		x.off[keyOf(t)+1]++
	}
	for i := 1; i < len(x.off); i++ {
		x.off[i] += x.off[i-1]
	}
	return x
}

func cmpSPO(a, b EncTriple) int {
	if c := cmpID(a.S, b.S); c != 0 {
		return c
	}
	if c := cmpID(a.P, b.P); c != 0 {
		return c
	}
	return cmpID(a.O, b.O)
}

func cmpPOS(a, b EncTriple) int {
	if c := cmpID(a.P, b.P); c != 0 {
		return c
	}
	if c := cmpID(a.O, b.O); c != 0 {
		return c
	}
	return cmpID(a.S, b.S)
}

func cmpOSP(a, b EncTriple) int {
	if c := cmpID(a.O, b.O); c != 0 {
		return c
	}
	if c := cmpID(a.S, b.S); c != 0 {
		return c
	}
	return cmpID(a.P, b.P)
}

func cmpID(a, b ID) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// lowerBound returns the first index in tri[lo:hi] whose component c
// (0 S, 1 P, 2 O) is at least id; the range must be sorted by that
// component, as a permutation's run of one leading ID is by its middle
// one. Calls at id and id+1 bound the equal range of id (dense IDs
// never reach the wrap). The search is hand-rolled and inlined, so c is
// a constant at every call site and no closure overhead reaches the
// point-lookup hot path.
func lowerBound(tri []EncTriple, lo, hi, c int, id ID) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if component(tri[m], c) < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// component returns t's component c (0 S, 1 P, 2 O).
func component(t EncTriple, c int) ID {
	switch c {
	case 0:
		return t.S
	case 1:
		return t.P
	}
	return t.O
}

// PermLayout is the flat representation of one sorted permutation: the
// triples in permutation order, the CSR row-pointer array over the
// dense ID space, and the trailing-component column.
type PermLayout struct {
	Tri []EncTriple
	Off []int32
	Col []ID
}

// Layout is the complete columnar layout of a built store — every flat
// array the read path touches, in a form that can be serialized to (and
// reconstructed from) an on-disk snapshot image. All slices are views
// into the store's arrays; callers must treat them as read-only.
type Layout struct {
	SPO, POS, OSP PermLayout
}

// Layout exposes the store's columnar arrays. The snapshot writer is
// the intended consumer.
func (st *Store) Layout() Layout {
	return Layout{
		SPO: PermLayout{Tri: st.spo.tri, Off: st.spo.off, Col: st.spo.col},
		POS: PermLayout{Tri: st.pos.tri, Off: st.pos.off, Col: st.pos.col},
		OSP: PermLayout{Tri: st.osp.tri, Off: st.osp.off, Col: st.osp.col},
	}
}

// FromLayout assembles a store over an externally backed layout —
// typically zero-copy views of a memory-mapped snapshot image — without
// any sorting or per-triple work.
//
// FromLayout trusts its inputs: the arrays must satisfy the invariants
// a build establishes (sorted permutations of one triple set, consistent
// row pointers, dense IDs covered by dict). The snapshot loader
// validates structural invariants and checksums before calling it.
func FromLayout(dict *Dict, l Layout, stats *Stats) *Store {
	return &Store{
		dict:  dict,
		spo:   perm{tri: l.SPO.Tri, off: l.SPO.Off, col: l.SPO.Col},
		pos:   perm{tri: l.POS.Tri, off: l.POS.Off, col: l.POS.Col},
		osp:   perm{tri: l.OSP.Tri, off: l.OSP.Off, col: l.OSP.Col},
		stats: stats,
	}
}

// FromTriples builds a store over an existing dictionary from an
// encoded triple slice that may hold duplicates: it sorts and
// deduplicates the triples, derives the three permutations and computes
// the statistics. It takes ownership of tris (the slice is sorted in
// place). An oversized triple set returns ErrTooManyTriples and leaves
// tris untouched. For folding a delta into an existing built base,
// MergeFold produces the identical store without re-sorting the base.
func FromTriples(dict *Dict, tris []EncTriple) (*Store, error) {
	if len(tris) > math.MaxInt32 {
		return nil, ErrTooManyTriples
	}
	slices.SortFunc(tris, cmpSPO)
	spo := make([]EncTriple, 0, len(tris))
	for i, t := range tris {
		if i > 0 && t == tris[i-1] {
			continue
		}
		spo = append(spo, t)
	}
	// Drop the duplicate-proportional spare capacity; spo lives for the
	// store's lifetime and MemStats reports by length.
	spo = slices.Clip(spo)
	sorted := func(cmp func(a, b EncTriple) int) func() []EncTriple {
		return func() []EncTriple {
			x := append([]EncTriple(nil), spo...)
			slices.SortFunc(x, cmp)
			return x
		}
	}
	return newStore(dict, spo, sorted(cmpPOS), sorted(cmpOSP)), nil
}

// FromRDF encodes ts into a fresh dictionary and builds a store over
// them with FromTriples.
func FromRDF(ts []rdf.Triple) (*Store, error) {
	dict := NewDict()
	tris := make([]EncTriple, len(ts))
	for i, t := range ts {
		tris[i] = dict.EncodeTriple(t)
	}
	return FromTriples(dict, tris)
}

// CompareSPO orders triples by (S,P,O) — the canonical permutation order.
func CompareSPO(a, b EncTriple) int { return cmpSPO(a, b) }

// ComparePOS orders triples by (P,O,S).
func ComparePOS(a, b EncTriple) int { return cmpPOS(a, b) }

// CompareOSP orders triples by (O,S,P).
func CompareOSP(a, b EncTriple) int { return cmpOSP(a, b) }

// Dict exposes the store's term dictionary.
func (st *Store) Dict() *Dict { return st.dict }

// NumTriples returns the number of distinct triples stored (RDF datasets
// are sets of triples; duplicates are removed at build time).
func (st *Store) NumTriples() int {
	return len(st.spo.tri)
}

// newStore assembles the store over one duplicate-free triple set
// given in its three permutation orders: spo itself, and producers of
// the POS- and OSP-sorted runs (a sort in FromTriples, a finished merge
// in MergeFold). It derives each permutation's row pointers and
// trailing column, and then the statistics. The three per-permutation
// builds, producers included, run concurrently on a worker group sized
// off GOMAXPROCS — they write disjoint fields from disjoint inputs, so
// the result is byte-identical to the sequential build.
func newStore(dict *Dict, spo []EncTriple, pos, osp func() []EncTriple) *Store {
	st := &Store{dict: dict}
	maxID := dict.Len()
	runParallel(
		func() {
			st.spo = makePerm(spo, maxID,
				func(t EncTriple) ID { return t.S },
				func(t EncTriple) ID { return t.O })
		},
		func() {
			st.pos = makePerm(pos(), maxID,
				func(t EncTriple) ID { return t.P },
				func(t EncTriple) ID { return t.S })
		},
		func() {
			st.osp = makePerm(osp(), maxID,
				func(t EncTriple) ID { return t.O },
				func(t EncTriple) ID { return t.P })
		},
	)
	st.stats = computeStats(st)
	return st
}

// Stats returns the statistics computed when the store was built.
func (st *Store) Stats() *Stats {
	return st.stats
}

// Contains reports whether the fully ground triple (s,p,o) is present,
// by binary search on the SPO permutation.
func (st *Store) Contains(s, p, o ID) bool {
	lo, hi := st.spo.run(s)
	end := hi
	tri := st.spo.tri
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		t := tri[m]
		if t.P < p || (t.P == p && t.O < o) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < end && tri[lo].P == p && tri[lo].O == o
}

// ObjectsSP returns the objects of all triples with the given subject and
// predicate, in ascending ID order. The returned slice is a view into the
// store's object column; do not modify it.
func (st *Store) ObjectsSP(s, p ID) []ID {
	lo, hi := st.spo.run(s)
	a := lowerBound(st.spo.tri, lo, hi, 1, p)
	return st.spo.col[a:lowerBound(st.spo.tri, a, hi, 1, p+1)]
}

// SubjectsPO returns the subjects of all triples with the given predicate
// and object, in ascending ID order (zero-copy view of the POS subject
// column).
func (st *Store) SubjectsPO(p, o ID) []ID {
	lo, hi := st.pos.run(p)
	a := lowerBound(st.pos.tri, lo, hi, 2, o)
	return st.pos.col[a:lowerBound(st.pos.tri, a, hi, 2, o+1)]
}

// PredsSO returns the predicates linking subject s to object o, in
// ascending ID order (zero-copy view of the OSP predicate column).
func (st *Store) PredsSO(s, o ID) []ID {
	lo, hi := st.osp.run(o)
	a := lowerBound(st.osp.tri, lo, hi, 0, s)
	return st.osp.col[a:lowerBound(st.osp.tri, a, hi, 0, s+1)]
}

// SubjectTriples returns all triples with subject s, sorted by (P,O)
// (zero-copy view of the SPO permutation).
func (st *Store) SubjectTriples(s ID) []EncTriple {
	lo, hi := st.spo.run(s)
	return st.spo.tri[lo:hi]
}

// PredicateTriples returns all triples with predicate p, sorted by (O,S)
// (zero-copy view of the POS permutation).
func (st *Store) PredicateTriples(p ID) []EncTriple {
	lo, hi := st.pos.run(p)
	return st.pos.tri[lo:hi]
}

// ObjectTriples returns all triples with object o, sorted by (S,P)
// (zero-copy view of the OSP permutation).
func (st *Store) ObjectTriples(o ID) []EncTriple {
	lo, hi := st.osp.run(o)
	return st.osp.tri[lo:hi]
}

// SubjectsOfPredicate returns the distinct subjects of a predicate in
// ascending ID order. The slice is computed per call; engine scan paths
// iterate PredicateTriples instead.
func (st *Store) SubjectsOfPredicate(p ID) []ID {
	lo, hi := st.pos.run(p)
	subs := append([]ID(nil), st.pos.col[lo:hi]...)
	slices.Sort(subs)
	return slices.Compact(subs)
}

// ObjectsOfPredicate returns the distinct objects of a predicate in
// ascending ID order: one compacting pass over the predicate's POS run,
// which holds its objects ascending. The slice is computed per call.
func (st *Store) ObjectsOfPredicate(p ID) []ID {
	var objs []ID
	for _, t := range st.PredicateTriples(p) {
		if n := len(objs); n == 0 || objs[n-1] != t.O {
			objs = append(objs, t.O)
		}
	}
	return objs
}

// Triples returns the full triple set in canonical (S,P,O) sorted order
// (read-only view).
func (st *Store) Triples() []EncTriple {
	return st.spo.tri
}

// CountP returns the number of triples with predicate p.
func (st *Store) CountP(p ID) int {
	lo, hi := st.pos.run(p)
	return hi - lo
}

// CountS returns the number of triples with subject s.
func (st *Store) CountS(s ID) int {
	lo, hi := st.spo.run(s)
	return hi - lo
}

// CountO returns the number of triples with object o.
func (st *Store) CountO(o ID) int {
	lo, hi := st.osp.run(o)
	return hi - lo
}

// CountSP returns the number of triples with subject s and predicate p.
func (st *Store) CountSP(s, p ID) int { return len(st.ObjectsSP(s, p)) }

// CountPO returns the number of triples with predicate p and object o.
func (st *Store) CountPO(p, o ID) int { return len(st.SubjectsPO(p, o)) }

// CountSO returns the number of triples with subject s and object o.
func (st *Store) CountSO(s, o ID) int { return len(st.PredsSO(s, o)) }
