package store

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// foldCase is one randomized MergeFold input over a built base: a
// resolved delta (adds absent from the base, tombstones present in it,
// no duplicates), as the overlay's resolve produces it, in arrival
// order. fold sorts it per permutation the way the overlay's views do.
type foldCase struct {
	base       *Store
	adds, dels []EncTriple
}

// sortedDelta sorts one resolved side in each permutation order.
func sortedDelta(tris []EncTriple) SortedDelta {
	d := SortedDelta{SPO: slices.Clone(tris), POS: slices.Clone(tris), OSP: slices.Clone(tris)}
	slices.SortFunc(d.SPO, cmpSPO)
	slices.SortFunc(d.POS, cmpPOS)
	slices.SortFunc(d.OSP, cmpOSP)
	return d
}

func (c foldCase) fold() (*Store, error) {
	return MergeFold(c.base, sortedDelta(c.adds), sortedDelta(c.dels))
}

func randFoldCase(rng *rand.Rand) foldCase {
	st, err := FromRDF(randTriples(rng, 120+rng.Intn(80)))
	if err != nil {
		panic(err)
	}
	d := st.Dict()
	tris := st.Triples()

	// Terms from the base's universe plus a few fresh ones, so adds
	// grow the shared dictionary exactly as live inserts do.
	term := func(prefix string) ID {
		return d.Encode(tri(prefix+itoa(rng.Intn(14)), "", "").S)
	}
	seen := map[EncTriple]bool{}
	var adds, dels []EncTriple
	for i, n := 0, rng.Intn(40); i < n; i++ {
		t := EncTriple{S: term("ns"), P: term("np"), O: term("no")}
		if !seen[t] && !st.Contains(t.S, t.P, t.O) {
			seen[t] = true
			adds = append(adds, t)
		}
	}
	for i, n := 0, rng.Intn(30); i < n && len(tris) > 0; i++ {
		if t := tris[rng.Intn(len(tris))]; !seen[t] {
			seen[t] = true
			dels = append(dels, t)
		}
	}
	return foldCase{base: st, adds: adds, dels: dels}
}

// rebuildReference folds the delta the pre-merge way: filter the base
// triples through a tombstone set, append the adds, and run the full
// FromTriples sort+compact rebuild.
func rebuildReference(t *testing.T, c foldCase) *Store {
	t.Helper()
	dead := make(map[EncTriple]struct{}, len(c.dels))
	for _, d := range c.dels {
		dead[d] = struct{}{}
	}
	merged := make([]EncTriple, 0, c.base.NumTriples()+len(c.adds))
	for _, tr := range c.base.Triples() {
		if _, ok := dead[tr]; !ok {
			merged = append(merged, tr)
		}
	}
	merged = append(merged, c.adds...)
	ref, err := FromTriples(c.base.Dict(), merged)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// requireIdentical asserts every array of the two stores' layouts —
// all three permutations with row pointers and trailing columns — and
// the statistics are byte-identical.
func requireIdentical(t *testing.T, got, want *Store) bool {
	t.Helper()
	g, w := got.Layout(), want.Layout()
	permEq := func(name string, a, b PermLayout) bool {
		if !slices.Equal(a.Tri, b.Tri) {
			t.Logf("%s triples diverge", name)
			return false
		}
		if !slices.Equal(a.Off, b.Off) {
			t.Logf("%s row pointers diverge", name)
			return false
		}
		if !slices.Equal(a.Col, b.Col) {
			t.Logf("%s trailing column diverges", name)
			return false
		}
		return true
	}
	if !permEq("spo", g.SPO, w.SPO) || !permEq("pos", g.POS, w.POS) || !permEq("osp", g.OSP, w.OSP) {
		return false
	}
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Logf("stats diverge: %+v vs %+v", got.Stats(), want.Stats())
		return false
	}
	return true
}

// TestMergeFoldMatchesRebuild: on randomized resolved deltas, sorted
// per permutation, MergeFold's output is byte-identical (all three
// permutations, row pointers, columns, statistics) to a full
// FromTriples rebuild of the flattened (base − dels) ∪ adds slice. (How
// duplicate adds, adds already in base, tombstones of absent triples
// and add-beats-tombstone reduce to such a delta is decided — and
// tested — in the overlay's resolve.)
func TestMergeFoldMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		c := randFoldCase(rand.New(rand.NewSource(seed)))
		got, err := c.fold()
		if err != nil {
			t.Logf("MergeFold: %v", err)
			return false
		}
		return requireIdentical(t, got, rebuildReference(t, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMergeFoldEmptyDelta: an empty delta reproduces the base exactly,
// and a delta against an empty base is just the adds.
func TestMergeFoldEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := foldCase{base: randFoldCase(rng).base}
	got, err := c.fold()
	if err != nil {
		t.Fatal(err)
	}
	if !requireIdentical(t, got, rebuildReference(t, c)) {
		t.Fatal("empty delta diverged from rebuild")
	}

	empty := mustBuild(t)
	d := empty.Dict()
	onto, err := foldCase{base: empty, adds: []EncTriple{
		{S: d.Encode(tri("s1", "", "").S), P: d.Encode(tri("p1", "", "").S), O: d.Encode(tri("o1", "", "").S)},
	}}.fold()
	if err != nil {
		t.Fatal(err)
	}
	if onto.NumTriples() != 1 {
		t.Fatalf("fold onto empty base: %d triples, want 1", onto.NumTriples())
	}
}

// TestMergeFoldRejectsUnresolvedDelta: the fold assumes the resolve
// invariants, so it checks them — a tombstone whose triple the base
// does not hold, an add the base already holds, a run sorted in the
// wrong order and permutations of different lengths each return
// ErrDeltaNotResolved instead of a store with a wrong triple set.
func TestMergeFoldRejectsUnresolvedDelta(t *testing.T) {
	c := randFoldCase(rand.New(rand.NewSource(5)))
	if len(c.adds) < 2 || len(c.dels) < 2 {
		t.Fatalf("seed yields too small a delta: %d adds, %d dels", len(c.adds), len(c.dels))
	}
	inBase := c.base.Triples()[3]
	swapped := sortedDelta(c.dels)
	swapped.SPO, swapped.POS = swapped.POS, swapped.SPO
	short := sortedDelta(c.adds)
	short.OSP = short.OSP[1:]
	for name, bad := range map[string][2]SortedDelta{
		"tombstone absent from base": {sortedDelta(c.adds[1:]), sortedDelta(slices.Concat(c.dels, c.adds[:1]))},
		"add present in base":        {sortedDelta(slices.Concat(c.adds, []EncTriple{inBase})), sortedDelta(nil)},
		"runs in the wrong order":    {sortedDelta(c.adds), swapped},
		"permutations disagree":      {short, sortedDelta(c.dels)},
		"more tombstones than base":  {sortedDelta(nil), sortedDelta(slices.Concat(c.base.Triples(), c.adds))},
	} {
		if st, err := MergeFold(c.base, bad[0], bad[1]); !errors.Is(err, ErrDeltaNotResolved) {
			t.Errorf("%s: MergeFold = %v, %v; want ErrDeltaNotResolved", name, st, err)
		}
	}
	if _, err := c.fold(); err != nil {
		t.Fatalf("the resolved delta itself must fold: %v", err)
	}
}

// TestBuildParallelSequentialIdentical pins the determinism guarantee
// of the concurrent permutation builds: the same input built with the
// worker group active (GOMAXPROCS > 1) and with the inline sequential
// path (GOMAXPROCS = 1) yields byte-identical layouts and statistics,
// for both the bulk build and MergeFold.
func TestBuildParallelSequentialIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(17))
	ts := randTriples(rng, 250)
	build := func(procs int) (*Store, *Store) {
		runtime.GOMAXPROCS(procs)
		st, err := FromRDF(ts)
		if err != nil {
			t.Fatal(err)
		}
		c := randFoldCase(rand.New(rand.NewSource(23)))
		folded, err := c.fold()
		if err != nil {
			t.Fatal(err)
		}
		return st, folded
	}
	seqSt, seqFold := build(1)
	parSt, parFold := build(4)
	if !requireIdentical(t, parSt, seqSt) {
		t.Error("parallel build diverges from sequential build")
	}
	if !requireIdentical(t, parFold, seqFold) {
		t.Error("parallel MergeFold diverges from sequential MergeFold")
	}
}

// TestFreezeTooManyTriplesSurfaces pins the typed-error contract
// indirectly: ErrTooManyTriples is a sentinel callers can test with
// errors.Is through FromRDF/FromTriples/MergeFold. (A real >2^31-triple
// load needs tens of GiB, so the limit check itself is exercised by
// construction, not allocation.)
func TestFreezeTooManyTriplesSurfaces(t *testing.T) {
	if ErrTooManyTriples == nil {
		t.Fatal("ErrTooManyTriples must be a non-nil sentinel")
	}
	// The happy paths return nil errors.
	st, err := FromRDF(randTriples(rand.New(rand.NewSource(1)), 10))
	if err != nil {
		t.Fatalf("FromRDF: %v", err)
	}
	if _, err := FromTriples(st.Dict(), nil); err != nil {
		t.Fatalf("FromTriples: %v", err)
	}
	if _, err := MergeFold(st, SortedDelta{}, SortedDelta{}); err != nil {
		t.Fatalf("MergeFold: %v", err)
	}
}
