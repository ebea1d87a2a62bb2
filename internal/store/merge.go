package store

import (
	"errors"
	"math"
)

// SortedDelta is one resolved side of a write delta — the net inserts
// or the net tombstones pending against a built base — held as the
// same triple set sorted in each of the three permutation orders. It is
// the currency between the overlay's memtable view (which keeps one per
// side for its read path) and MergeFold (which consumes a pair).
type SortedDelta struct {
	SPO, POS, OSP []EncTriple
}

// Len returns the number of triples in the delta.
func (d SortedDelta) Len() int { return len(d.SPO) }

// ErrDeltaNotResolved is returned by MergeFold when a delta breaks the
// invariants the fold merges under (see MergeRun): a tombstone without
// its base triple, an insert the base already holds, a run in the wrong
// order, or permutations that disagree in length.
var ErrDeltaNotResolved = errors.New("store: delta is not resolved against the base")

// MergeRun returns (base − minus) ∪ plus in cmp order. All three inputs
// are sorted by cmp and duplicate-free, with minus ⊆ base and
// plus ∩ base = ∅, so the merge is a single three-finger pass with no
// equality cases between base and plus. When no delta touches the run,
// base itself is returned — the zero-copy fast path of a clean view.
//
// resolved reports what the pass learns for free about those
// invariants: every minus finger met its base triple and no plus tied
// with one. Readers of a view, whose delta is resolved by construction,
// ignore it; MergeFold turns a false into ErrDeltaNotResolved.
func MergeRun(base, minus, plus []EncTriple, cmp func(a, b EncTriple) int) (out []EncTriple, resolved bool) {
	if len(minus) == 0 && len(plus) == 0 {
		return base, true
	}
	out = make([]EncTriple, 0, max(len(base)-len(minus), 0)+len(plus))
	j, k, tie := 0, 0, false
	for _, t := range base {
		if j < len(minus) && minus[j] == t {
			j++
			continue
		}
		for k < len(plus) {
			c := cmp(plus[k], t)
			if c > 0 {
				break
			}
			tie = tie || c == 0
			out = append(out, plus[k])
			k++
		}
		out = append(out, t)
	}
	return append(out, plus[k:]...), j == len(minus) && !tie
}

// MergeFold builds a store holding (base − del) ∪ add without
// sorting anything: each of the base's three permutations is merged
// with the delta's run in the same order by MergeRun, one linear pass
// per permutation. Row pointers and trailing columns are rebuilt by a
// linear index pass over each merged run, and the statistics are
// recomputed off the merged arrays — O(n+m) per permutation for an
// n-triple base and m-triple delta.
//
// add and del must be resolved against base (add ∩ base = ∅,
// del ⊆ base, add ∩ del = ∅); the output is then byte-identical to a
// FromTriples rebuild of the flattened triple set — same permutation
// arrays, row pointers, columns and statistics. Because the merge
// assumes the invariants it also checks them, at no extra cost: every
// tombstone consumed, no insert tying with a base triple, and every
// merged run exactly len(base) − len(del) + len(add) long; a delta that
// fails returns ErrDeltaNotResolved before any index is built.
//
// The three merges, then the three index builds (FromTriples' own,
// minus its sorts), run concurrently on a worker group sized off
// GOMAXPROCS at call time (inline on a single
// processor, identical output either way). The result shares base's
// dictionary; base itself is never mutated. An oversized result returns
// ErrTooManyTriples.
func MergeFold(base *Store, add, del SortedDelta) (*Store, error) {
	want := len(base.spo.tri) - del.Len() + add.Len()
	if want > math.MaxInt32 {
		return nil, ErrTooManyTriples
	}
	var spo, pos, osp []EncTriple
	var ok [3]bool
	runParallel(
		func() { spo, ok[0] = MergeRun(base.spo.tri, del.SPO, add.SPO, cmpSPO) },
		func() { pos, ok[1] = MergeRun(base.pos.tri, del.POS, add.POS, cmpPOS) },
		func() { osp, ok[2] = MergeRun(base.osp.tri, del.OSP, add.OSP, cmpOSP) },
	)
	if !(ok[0] && ok[1] && ok[2]) || len(spo) != want || len(pos) != want || len(osp) != want {
		return nil, ErrDeltaNotResolved
	}
	return newStore(base.dict, spo,
		func() []EncTriple { return pos },
		func() []EncTriple { return osp }), nil
}
