package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparqluo/internal/store"
)

// randSkewBag generates a random bag exercising the join edge cases the
// merge dispatch must survive: duplicate key values (skew — domain can
// be as small as {1,2}), store.None holes on non-certain positions, and
// empty bags. With probability ~1/2 the bag is re-sorted by a random
// position sequence and carries the matching Order claim, so the
// order-aware dispatch takes every physical path across seeds.
func randSkewBag(rng *rand.Rand, width int) *Bag {
	n := rng.Intn(10)
	if rng.Intn(8) == 0 {
		n = 0
	}
	domain := 1 + rng.Intn(4) // small domains force heavy key skew
	certMask := rng.Intn(1 << width)
	b := NewBag(width)
	row := make(Row, width)
	for i := 0; i < n; i++ {
		for v := 0; v < width; v++ {
			row[v] = store.None
			if certMask&(1<<v) != 0 || rng.Intn(3) == 0 {
				row[v] = store.ID(1 + rng.Intn(domain))
			}
		}
		b.Append(row)
	}
	for v := 0; v < width; v++ {
		if certMask&(1<<v) != 0 && n > 0 {
			b.Cert.Set(v)
		}
		for _, r := range b.All() {
			if r[v] != store.None {
				b.Maybe.Set(v)
			}
		}
	}
	if rng.Intn(2) == 0 {
		var seq []int
		for _, v := range rng.Perm(width)[:rng.Intn(width+1)] {
			seq = append(seq, v)
		}
		b = SortByKeys(b, ascending(seq))
	}
	return b
}

// forcedHashJoin runs the hash matcher regardless of operand orders,
// with an injectable key hash.
func forcedHashJoin(a, b *Bag, hash keyHashFn) *Bag {
	return joinKernel(a, b, modeInner, unlimited, pathHash, hash)
}

// forcedMergeJoin sorts both operands on the certain keys, which makes
// the dispatch pick the merge matcher.
func forcedMergeJoin(a, b *Bag) *Bag {
	keys := a.Cert.And(b.Cert).Indices(a.Width)
	return joinKernel(SortByKeys(a, ascending(keys)), SortByKeys(b, ascending(keys)), modeInner, unlimited, pathAuto, hashKey)
}

// TestQuickMergeHashNestedJoinAgree proves the three physical joins —
// streaming merge, hash probe, and the naive nested loop — compute the
// same multiset on randomized bags with key skew, None holes and empty
// operands. The dispatched Join must agree with all of them.
func TestQuickMergeHashNestedJoinAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 4
		a, b := randSkewBag(rng, width), randSkewBag(rng, width)
		want := naiveJoin(a, b)
		if got := Join(a, b); !MultisetEqual(got, want) {
			t.Logf("dispatched join: got %d rows, want %d", got.Len(), want.Len())
			return false
		}
		if a.Len() == 0 || b.Len() == 0 {
			return true // physical operators require non-empty operands
		}
		if keys := a.Cert.And(b.Cert).Indices(width); len(keys) == 0 {
			return true // hash/merge require a certain key
		}
		if got := forcedHashJoin(a, b, hashKey); !MultisetEqual(got, want) {
			t.Logf("hash join: got %d rows, want %d", got.Len(), want.Len())
			return false
		}
		if got := forcedMergeJoin(a, b); !MultisetEqual(got, want) {
			t.Logf("merge join: got %d rows, want %d", got.Len(), want.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinDeterministicOrder pins the documented output contract:
// the dispatched join is a deterministic function of its operands (same
// rows in the same physical order on every run), which the byte-identical
// results upstream rely on.
func TestQuickJoinDeterministicOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSkewBag(rng, 4), randSkewBag(rng, 4)
		x, y := Join(a, b), Join(a, b)
		if x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if compareRows(x.Row(i), y.Row(i)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickLeftJoinOrderedMatchesNaive drives the merge left-join path
// (ordered operands) against the naive definition.
func TestQuickLeftJoinOrderedMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSkewBag(rng, 4), randSkewBag(rng, 4)
		return MultisetEqual(LeftJoin(a, b), naiveLeftJoin(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSemiDiffOrderedMatchNaive drives the merge and keyed-hash
// semijoin/anti-join paths against their naive definitions, and checks
// that both preserve Ω1's physical row order (they emit subsequences).
func TestQuickSemiDiffOrderedMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSkewBag(rng, 4), randSkewBag(rng, 4)
		semi, diff := SemiJoin(a, b), Diff(a, b)
		wantSemi, wantDiff := NewBag(a.Width), NewBag(a.Width)
		for _, ra := range a.All() {
			matched := false
			for _, rb := range b.All() {
				if naiveCompatible(ra, rb) {
					matched = true
					break
				}
			}
			if matched {
				wantSemi.Append(ra)
			} else {
				wantDiff.Append(ra)
			}
		}
		// Order-preserving subsequence: exact row-sequence equality.
		for _, pair := range []struct{ got, want *Bag }{{semi, wantSemi}, {diff, wantDiff}} {
			if pair.got.Len() != pair.want.Len() {
				return false
			}
			for i := 0; i < pair.got.Len(); i++ {
				if compareRows(pair.got.Row(i), pair.want.Row(i)) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickOperatorOrderClaimsSound verifies the physical-order property
// every operator attaches to its output: whatever Order a result bag
// claims, its rows actually ascend lexicographically by it. This is the
// invariant the merge-join dispatch trusts.
func TestQuickOperatorOrderClaimsSound(t *testing.T) {
	check := func(t *testing.T, tag string, b *Bag) bool {
		t.Helper()
		if !b.SortedBy(b.Order) {
			t.Logf("%s: claimed order %v not sorted", tag, b.Order)
			return false
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSkewBag(rng, 4), randSkewBag(rng, 4)
		ok := check(t, "a", a) && check(t, "b", b) &&
			check(t, "join", Join(a, b)) &&
			check(t, "leftjoin", LeftJoin(a, b)) &&
			check(t, "semijoin", SemiJoin(a, b)) &&
			check(t, "diff", Diff(a, b)) &&
			check(t, "union", UnionAll(4, a, b)) &&
			check(t, "distinct", Distinct(a)) &&
			check(t, "project", Project(a, []int{0, 2})) &&
			check(t, "sortby", SortByKeys(a, ascending([]int{1, 3})))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHashCollisionProbeVerifiesKeys is the regression test for the
// hash-collision bug: with the key hash replaced by a degenerate
// constant, every build row lands in one bucket, and only the probe-side
// key-equality comparison keeps rows with different key values apart.
// (A real FNV-1a collision is astronomically unlikely to construct, so
// the test forces the worst case through the injectable keyHashFn.)
func TestHashCollisionProbeVerifiesKeys(t *testing.T) {
	zero := func(Row, []int) uint64 { return 0 }

	// Two certain key columns with disjoint values: nothing may join.
	a := mkBag(3, []int{1, 2, 7}, []int{3, 4, 0})
	b := mkBag(3, []int{5, 6, 9}, []int{7, 8, 0})
	if got := forcedHashJoin(a, b, zero); got.Len() != 0 {
		t.Fatalf("collision-bucketed hash join paired %d incompatible rows", got.Len())
	}
	// And mixed cases cross-checked against the naive definitions,
	// through every keyed operator's hash path under the constant hash.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x, y := randSkewBag(rng, 4), randSkewBag(rng, 4)
		if x.Len() == 0 || y.Len() == 0 {
			continue
		}
		keys := x.Cert.And(y.Cert).Indices(x.Width)
		if len(keys) == 0 {
			continue
		}
		if !MultisetEqual(forcedHashJoin(x, y, zero), naiveJoin(x, y)) {
			t.Fatal("hash join relies on hash uniqueness for key equality")
		}
		lj := joinKernel(x, y, modeLeft, unlimited, pathHash, zero)
		if !MultisetEqual(lj, naiveLeftJoin(x, y)) {
			t.Fatal("hash left join relies on hash uniqueness for key equality")
		}
		semi := joinKernel(x, y, modeSemi, unlimited, pathHash, zero)
		diff := joinKernel(x, y, modeAnti, unlimited, pathHash, zero)
		if semi.Len()+diff.Len() != x.Len() {
			t.Fatal("hash semi/anti join relies on hash uniqueness for key equality")
		}
		if !MultisetEqual(SemiJoin(x, y), semi) || !MultisetEqual(Diff(x, y), diff) {
			t.Fatal("semi/anti join under constant hash diverges from dispatched result")
		}
	}
	// Distinct's bucket verification compares full rows on collision.
	d := mkBag(2, []int{1, 2}, []int{3, 4}, []int{1, 2})
	if got := distinctWith(d, zero).Len(); got != 2 {
		t.Fatalf("collision-bucketed Distinct kept %d rows, want 2", got)
	}
}

// TestSortByStableAndSorted pins the two contracts of an ascending
// SortByKeys: the output is sorted by the requested sequence, and ties
// keep the input order (the determinism the merge dispatch needs when it
// re-sorts an operand).
func TestSortByStableAndSorted(t *testing.T) {
	b := mkBag(2, []int{2, 1}, []int{1, 2}, []int{2, 3}, []int{1, 1})
	s := SortByKeys(b, ascending([]int{0}))
	want := [][]store.ID{{1, 2}, {1, 1}, {2, 1}, {2, 3}}
	for i, w := range want {
		r := s.Row(i)
		if r[0] != w[0] || r[1] != w[1] {
			t.Fatalf("row %d = %v, want %v", i, r, w)
		}
	}
	if !s.SortedBy([]int{0}) {
		t.Fatal("SortByKeys output not sorted by requested sequence")
	}
}

// TestViewAppendDoesNotCorruptParent pins View's capacity clamp: a view
// of a bag with spare arena capacity must reallocate on append instead
// of overwriting the parent's rows past the view end.
func TestViewAppendDoesNotCorruptParent(t *testing.T) {
	b := NewBag(2)
	b.Grow(8)
	for i := 1; i <= 4; i++ {
		b.Append(Row{store.ID(i), store.ID(i)})
	}
	v := b.View(0, 2)
	v.Append(Row{99, 99})
	if got := b.Row(2)[0]; got != 3 {
		t.Fatalf("append to view overwrote parent row: got %d, want 3", got)
	}
}

// TestSetColumnTruncatesOrderSuffix pins SetColumn's order handling:
// columns after the rewritten sort column were only sorted within its
// old values, so the claim must stop at the column itself.
func TestSetColumnTruncatesOrderSuffix(t *testing.T) {
	b := mkBag(3, []int{1, 1, 5}, []int{1, 2, 3})
	b.Order = []int{0, 1, 2}
	b.SetColumn(1, 7)
	want := []int{0, 1}
	if len(b.Order) != len(want) || b.Order[0] != 0 || b.Order[1] != 1 {
		t.Fatalf("Order = %v, want %v", b.Order, want)
	}
	if !b.SortedBy(b.Order) {
		t.Fatal("truncated order claim still unsound")
	}
}
