package algebra

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sparqluo/internal/store"
)

// mkBag builds a bag from rows given as slices; 0 means unbound.
func mkBag(width int, rows ...[]int) *Bag {
	b := NewBag(width)
	// Compute cert/maybe from the data.
	for i := 0; i < width; i++ {
		all, any := true, false
		for _, r := range rows {
			if r[i] != 0 {
				any = true
			} else {
				all = false
			}
		}
		if any {
			b.Maybe.Set(i)
		}
		if all && len(rows) > 0 {
			b.Cert.Set(i)
		}
	}
	for _, r := range rows {
		row := make(Row, width)
		for i, v := range r {
			row[i] = store.ID(v)
		}
		b.Append(row)
	}
	return b
}

func rowsOf(b *Bag) [][]int {
	out := make([][]int, b.Len())
	for i, r := range b.All() {
		out[i] = make([]int, len(r))
		for j, v := range r {
			out[i][j] = int(v)
		}
	}
	return out
}

func TestCompatible(t *testing.T) {
	tests := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 2}, []int{1, 2}, true},
		{[]int{1, 0}, []int{1, 2}, true},  // unbound is compatible
		{[]int{0, 0}, []int{5, 7}, true},  // disjoint domains
		{[]int{1, 2}, []int{1, 3}, false}, // conflict on var 1
		{[]int{3, 2}, []int{1, 2}, false},
	}
	for _, tc := range tests {
		a := mkBag(2, tc.a).Row(0)
		b := mkBag(2, tc.b).Row(0)
		if got := Compatible(a, b, []int{0, 1}); got != tc.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJoinBasic(t *testing.T) {
	a := mkBag(3, []int{1, 2, 0}, []int{1, 3, 0})
	b := mkBag(3, []int{1, 0, 9}, []int{2, 0, 8})
	got := Join(a, b)
	want := mkBag(3, []int{1, 2, 9}, []int{1, 3, 9})
	if !MultisetEqual(got, want) {
		t.Errorf("join = %v, want %v", rowsOf(got), rowsOf(want))
	}
}

func TestJoinPreservesDuplicates(t *testing.T) {
	a := mkBag(2, []int{1, 0}, []int{1, 0}) // duplicate mapping
	b := mkBag(2, []int{1, 5})
	got := Join(a, b)
	if got.Len() != 2 {
		t.Errorf("bag join should preserve duplicates: got %d rows", got.Len())
	}
}

func TestJoinNoKeyFallsBackToNestedLoop(t *testing.T) {
	// a binds var0, b binds var1: no common certain variable.
	a := mkBag(2, []int{1, 0}, []int{2, 0})
	b := mkBag(2, []int{0, 7})
	got := Join(a, b)
	want := mkBag(2, []int{1, 7}, []int{2, 7})
	if !MultisetEqual(got, want) {
		t.Errorf("cartesian join = %v, want %v", rowsOf(got), rowsOf(want))
	}
}

func TestUnionConcatenates(t *testing.T) {
	a := mkBag(2, []int{1, 2})
	b := mkBag(2, []int{1, 2}, []int{3, 0})
	got := UnionAll(2, a, b)
	if got.Len() != 3 {
		t.Errorf("union len = %d, want 3", got.Len())
	}
	// Cert must be the intersection: var1 not bound in all rows of b.
	if got.Cert.Has(1) {
		t.Error("union cert should not include var 1")
	}
	if !got.Maybe.Has(1) {
		t.Error("union maybe should include var 1")
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	a := mkBag(2, []int{1, 0}, []int{2, 0})
	b := mkBag(2, []int{1, 5})
	got := LeftJoin(a, b)
	want := mkBag(2, []int{1, 5}, []int{2, 0})
	if !MultisetEqual(got, want) {
		t.Errorf("leftjoin = %v, want %v", rowsOf(got), rowsOf(want))
	}
}

func TestLeftJoinMultiplicity(t *testing.T) {
	// One left row, two compatible right rows → two output rows.
	a := mkBag(2, []int{1, 0})
	b := mkBag(2, []int{1, 5}, []int{1, 6})
	got := LeftJoin(a, b)
	if got.Len() != 2 {
		t.Errorf("leftjoin multiplicity = %d, want 2", got.Len())
	}
}

// TestLeftJoinNotCommutableWithJoin pins the counterexample that makes
// moving a BGP across an OPTIONAL boundary unsafe (see
// insertSafe in package core): (A ⟕ B) ⋈ C ≠ (A ⋈ C) ⟕ B.
func TestLeftJoinNotCommutableWithJoin(t *testing.T) {
	A := mkBag(1, []int{0})        // single empty mapping; width 1 (var v)
	B := mkBag(1, []int{1})        // v=1
	C := mkBag(1, []int{2})        // v=2
	lhs := Join(LeftJoin(A, B), C) // (A ⟕ B) ⋈ C = {v=1} ⋈ {v=2} = ∅
	rhs := LeftJoin(Join(A, C), B) // (A ⋈ C) ⟕ B = {v=2} ⟕ {v=1} = {v=2}
	if lhs.Len() == rhs.Len() {
		t.Fatalf("expected the two orderings to differ: lhs=%d rhs=%d", lhs.Len(), rhs.Len())
	}
}

func TestDiff(t *testing.T) {
	a := mkBag(2, []int{1, 0}, []int{2, 0})
	b := mkBag(2, []int{1, 5})
	got := Diff(a, b)
	want := mkBag(2, []int{2, 0})
	if !MultisetEqual(got, want) {
		t.Errorf("diff = %v, want %v", rowsOf(got), rowsOf(want))
	}
}

func TestSemiJoin(t *testing.T) {
	a := mkBag(2, []int{1, 0}, []int{2, 0}, []int{1, 0})
	b := mkBag(2, []int{1, 5})
	got := SemiJoin(a, b)
	// Both copies of v0=1 survive; v0=2 does not.
	if got.Len() != 2 {
		t.Errorf("semijoin len = %d, want 2", got.Len())
	}
}

func TestProjectClearsDropped(t *testing.T) {
	b := mkBag(3, []int{1, 2, 3})
	got := Project(b, []int{0, 2})
	if got.Row(0)[1] != store.None {
		t.Error("projection should clear dropped variable")
	}
	if got.Row(0)[0] != 1 || got.Row(0)[2] != 3 {
		t.Error("projection should keep selected variables")
	}
}

func TestDistinct(t *testing.T) {
	b := mkBag(2, []int{1, 2}, []int{1, 2}, []int{1, 3})
	if got := Distinct(b).Len(); got != 2 {
		t.Errorf("distinct = %d rows, want 2", got)
	}
}

func TestUnitIsJoinIdentity(t *testing.T) {
	b := mkBag(2, []int{1, 2}, []int{3, 4})
	u := Unit(2)
	if got := Join(u, b); !MultisetEqual(got, b) {
		t.Errorf("Unit ⋈ b = %v, want %v", rowsOf(got), rowsOf(b))
	}
	if got := Join(b, u); !MultisetEqual(got, b) {
		t.Errorf("b ⋈ Unit = %v, want %v", rowsOf(got), rowsOf(b))
	}
}

// TestBindingsOfCapped: a cap below the 3 distinct values yields nil; a
// cap at or above it, or none, yields the ascending distinct list, with
// the unbound cell skipped, whether or not the cap reaches the bag's 6
// rows.
func TestBindingsOfCapped(t *testing.T) {
	b := mkBag(1, []int{9}, []int{2}, []int{0}, []int{9}, []int{5}, []int{2})
	for _, c := range []int{0, 1, 2} {
		if got := BindingsOfCapped(b, 0, c); got != nil {
			t.Errorf("capped at %d with 3 distinct: want nil, got %v", c, got)
		}
	}
	want := []store.ID{2, 5, 9}
	for _, c := range []int{3, 5, 6, 7, -1} {
		if got := BindingsOfCapped(b, 0, c); !slices.Equal(got, want) {
			t.Errorf("capped at %d with 3 distinct: want the ascending distinct %v, got %v", c, want, got)
		}
	}
	unbound := mkBag(1, []int{0}, []int{0})
	for _, c := range []int{0, 1, 2, -1} {
		if got := BindingsOfCapped(unbound, 0, c); got == nil || len(got) != 0 {
			t.Errorf("capped at %d with no bound value: want an empty list, got %v (nil %v)", c, got, got == nil)
		}
	}
}

// ---- reference (naive) implementations for property testing -----------

func naiveCompatible(a, b Row) bool {
	for i := range a {
		if a[i] != store.None && b[i] != store.None && a[i] != b[i] {
			return false
		}
	}
	return true
}

func naiveJoin(a, b *Bag) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.Or(b.Cert)
	out.Maybe = a.Maybe.Or(b.Maybe)
	for _, ra := range a.All() {
		for _, rb := range b.All() {
			if naiveCompatible(ra, rb) {
				out.Append(MergeRows(ra, rb))
			}
		}
	}
	return out
}

func naiveLeftJoin(a, b *Bag) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.Clone()
	out.Maybe = a.Maybe.Or(b.Maybe)
	for _, ra := range a.All() {
		matched := false
		for _, rb := range b.All() {
			if naiveCompatible(ra, rb) {
				matched = true
				out.Append(MergeRows(ra, rb))
			}
		}
		if !matched {
			out.Append(ra)
		}
	}
	return out
}

// randBag generates a random bag with consistent Cert/Maybe metadata.
func randBag(rng *rand.Rand, width int) *Bag {
	n := rng.Intn(12)
	// Pick a random set of "certain" variables bound in every row.
	certMask := rng.Intn(1 << width)
	b := NewBag(width)
	for i := 0; i < n; i++ {
		row := make(Row, width)
		for v := 0; v < width; v++ {
			if certMask&(1<<v) != 0 || rng.Intn(3) == 0 {
				row[v] = store.ID(1 + rng.Intn(4))
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
	return b
}

// TestQuickJoinMatchesNaive cross-checks the hash join against the naive
// nested-loop definition on random bags (testing/quick drives the seeds).
func TestQuickJoinMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 4
		a, b := randBag(rng, width), randBag(rng, width)
		return MultisetEqual(Join(a, b), naiveJoin(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickLeftJoinMatchesNaive cross-checks the left outer join.
func TestQuickLeftJoinMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 4
		a, b := randBag(rng, width), randBag(rng, width)
		return MultisetEqual(LeftJoin(a, b), naiveLeftJoin(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickLeftJoinDefinition checks Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪bag (Ω1 \ Ω2),
// the definition of Section 3.
func TestQuickLeftJoinDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 4
		a, b := randBag(rng, width), randBag(rng, width)
		lhs := LeftJoin(a, b)
		rhs := UnionAll(width, Join(a, b), Diff(a, b))
		return MultisetEqual(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionCommutesUnderMultiset checks ∪bag commutativity as
// multisets.
func TestQuickUnionCommutesUnderMultiset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randBag(rng, 3), randBag(rng, 3)
		return MultisetEqual(UnionAll(3, a, b), UnionAll(3, b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// unionPair is the two-operand ∪bag UnionAll generalizes, kept as the
// reference it is folded against.
func unionPair(a, b *Bag) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.And(b.Cert)
	out.Maybe = a.Maybe.Or(b.Maybe)
	if a.Len() == 0 {
		out.Cert = b.Cert.Clone()
		out.Order = slices.Clone(b.Order)
	}
	if b.Len() == 0 {
		out.Cert = a.Cert.Clone()
		out.Order = slices.Clone(a.Order)
	}
	out.AppendAll(a)
	out.AppendAll(b)
	return out
}

// TestQuickUnionAllIsTheUnionFold pins UnionAll to the left fold of
// unionPair from the empty bag: same rows in the same order, same Cert,
// Maybe and Order, on zero to five random operands — sorted ones and
// empty ones (which may still carry claims) included.
func TestQuickUnionAllIsTheUnionFold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bags := make([]*Bag, rng.Intn(6))
		for i := range bags {
			bags[i] = randSkewBag(rng, 4)
			if rng.Intn(4) == 0 {
				bags[i] = bags[i].View(0, 0) // empty, claims kept
			}
		}
		want := NewBag(4)
		for _, b := range bags {
			want = unionPair(want, b)
		}
		got := UnionAll(4, bags...)
		return slices.Equal(got.data, want.data) && got.rows == want.rows &&
			slices.Equal(got.Cert, want.Cert) && slices.Equal(got.Maybe, want.Maybe) &&
			slices.Equal(got.Order, want.Order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinCommutes checks ⋈ commutativity as multisets.
func TestQuickJoinCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randBag(rng, 4), randBag(rng, 4)
		return MultisetEqual(Join(a, b), Join(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSemiJoinIsFilter checks that SemiJoin returns exactly the rows
// with at least one compatible partner.
func TestQuickSemiJoinIsFilter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randBag(rng, 4), randBag(rng, 4)
		got := SemiJoin(a, b)
		want := NewBag(a.Width)
		for _, ra := range a.All() {
			for _, rb := range b.All() {
				if naiveCompatible(ra, rb) {
					want.Append(ra)
					break
				}
			}
		}
		return MultisetEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickLeftJoinCardinalityLowerBound: |Ω1 ⟕ Ω2| ≥ |Ω1| — OPTIONAL
// never loses left rows.
func TestQuickLeftJoinCardinalityLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randBag(rng, 4), randBag(rng, 4)
		return LeftJoin(a, b).Len() >= a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBits(t *testing.T) {
	b := NewBits(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	for _, i := range []int{0, 64, 129} {
		if !b.Has(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Has(1) || b.Has(63) || b.Has(128) {
		t.Error("unexpected bits set")
	}
	c := NewBits(130)
	c.Set(64)
	and := b.And(c)
	if !and.Has(64) || and.Has(0) || and.Has(129) {
		t.Errorf("And: got %v", and.Indices(130))
	}
	or := b.Or(c)
	if got := or.Indices(130); len(got) != 3 {
		t.Errorf("Or: got %v", got)
	}
}
