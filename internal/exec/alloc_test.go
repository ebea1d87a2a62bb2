package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

// scanStore holds two predicates of 200 and 20,000 triples, a predicate
// whose triples repeat their subject as object for every third subject,
// and a predicate under which one subject has 100 objects.
func scanStore(tb testing.TB) *store.Store {
	tb.Helper()
	var ts []rdf.Triple
	add := func(pred string, n int, obj func(i int) string) {
		p := rdf.NewIRI("http://x/" + pred)
		for i := 0; i < n; i++ {
			ts = append(ts, rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), P: p, O: rdf.NewIRI(obj(i))})
		}
	}
	add("small", 200, func(i int) string { return fmt.Sprintf("http://x/o%d", i) })
	add("large", 20000, func(i int) string { return fmt.Sprintf("http://x/o%d", i%97) })
	add("self", 300, func(i int) string {
		if i%3 == 0 {
			return fmt.Sprintf("http://x/s%d", i)
		}
		return fmt.Sprintf("http://x/o%d", i)
	})
	fan := rdf.NewIRI("http://x/fan")
	for i := 0; i < 100; i++ {
		ts = append(ts, rdf.Triple{S: rdf.NewIRI("http://x/s0"), P: fan, O: rdf.NewIRI(fmt.Sprintf("http://x/o%d", i))})
	}
	st, err := store.FromRDF(ts)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func predPattern(tb testing.TB, st *store.Store, pred string, s, o int) Pattern {
	tb.Helper()
	id, ok := st.Dict().Lookup(rdf.NewIRI("http://x/" + pred))
	if !ok {
		tb.Fatalf("predicate %s not in the store", pred)
	}
	return Pattern{S: Var(s), P: Const(id), O: Var(o)}
}

// TestScanAllocatesArenaOnce checks that a one-pattern BGP allocates as
// often for 20,000 matching rows as for 200: the output arena is sized
// from the index range up front instead of being grown by doubling.
func TestScanAllocatesArenaOnce(t *testing.T) {
	st := scanStore(t)
	small, large := predPattern(t, st, "small", 0, 1), predPattern(t, st, "large", 0, 1)
	ctx := context.Background()
	for _, e := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
		allocs := func(pat Pattern, want int) float64 {
			var n int
			a := testing.AllocsPerRun(20, func() {
				n = e.EvalBGPTop(ctx, st, BGP{pat}, 2, nil, -1, nil).Len()
			})
			if n != want {
				t.Fatalf("%s: %d rows, want %d", e.Name(), n, want)
			}
			return a
		}
		a200, a20k := allocs(small, 200), allocs(large, 20000)
		if a200 != a20k {
			t.Errorf("%s: %.0f allocations at 200 rows, %.0f at 20,000: the arena is regrown per row count", e.Name(), a200, a20k)
		}
	}
}

// TestScanSizingKeepsRows checks the scans the up-front size does not
// apply to, and the capped one it does: a repeated-variable pattern and a
// candidate-constrained pattern return the rows a brute-force scan finds,
// and a max = 10 call returns the first 10 rows of the uncapped call.
func TestScanSizingKeepsRows(t *testing.T) {
	st := scanStore(t)
	self := predPattern(t, st, "self", 0, 0)
	large := predPattern(t, st, "large", 0, 1)
	var subjects []store.ID
	var wantCand []algebra.Row
	for _, r := range bruteMatches(st, large, 2) {
		if r[0]%5 == 0 {
			subjects = append(subjects, r[0])
			wantCand = append(wantCand, r)
		}
	}
	slices.Sort(subjects)
	cands := Candidates{0: slices.Compact(subjects)}
	sorted := func(rows []algebra.Row) []algebra.Row {
		return slices.SortedFunc(slices.Values(rows), slices.Compare[algebra.Row])
	}
	ctx := context.Background()
	for _, e := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
		eval := func(pat Pattern, cand Candidates, max int) []algebra.Row {
			return bagRows(e.EvalBGPTop(ctx, st, BGP{pat}, 2, cand, max, nil))
		}
		if got, want := sorted(eval(self, nil, -1)), sorted(bruteMatches(st, self, 2)); len(want) != 100 || !rowsEqual(got, want) {
			t.Errorf("%s repeated variable: %d rows, want the %d brute-force rows (100 expected)", e.Name(), len(got), len(want))
		}
		if got := sorted(eval(large, cands, -1)); len(wantCand) == 0 || !rowsEqual(got, sorted(wantCand)) {
			t.Errorf("%s candidates: %d rows, want the %d brute-force rows", e.Name(), len(got), len(wantCand))
		}
		if got, all := eval(large, nil, 10), eval(large, nil, -1); len(all) != 20000 || !rowsEqual(got, all[:10]) {
			t.Errorf("%s max 10: %v, want the first 10 of %d rows", e.Name(), got, len(all))
		}
	}
}

// TestCandidateScanAllocatesAsPlainScan checks that a scan restricted by
// a candidate list allocates as often as the same scan without one: the
// list is read as it is, never copied or sorted per call. It covers the
// one-open-position intersection (subject and predicate bound, objects
// open) and the predicate-only shape probed by subject and by object.
func TestCandidateScanAllocatesAsPlainScan(t *testing.T) {
	st := scanStore(t)
	fan, small := predPattern(t, st, "fan", 0, 1), predPattern(t, st, "small", 0, 1)
	// The first ten matches' subjects or objects: lists far shorter
	// than the ranges, so the probes and the list-driven side of the
	// intersection run.
	first := func(pat Pattern, row algebra.Row, col int) []store.ID {
		var ids []store.ID
		for _, r := range collectMatches(st, pat, row, nil)[:10] {
			ids = append(ids, r[col])
		}
		return slices.Sorted(slices.Values(ids))
	}
	s0, ok := st.Dict().Lookup(rdf.NewIRI("http://x/s0"))
	if !ok {
		t.Fatal("subject s0 not in the store")
	}
	unit, seeded := make(algebra.Row, 2), algebra.Row{s0, store.None}
	cases := []struct {
		name string
		pat  Pattern
		row  algebra.Row
		cand Candidates
		arm  string
	}{
		{"subject and predicate bound", fan, seeded, Candidates{1: first(fan, seeded, 1)}, "view"},
		{"predicate bound, probed by subject", small, unit, Candidates{0: first(small, unit, 0)}, "probe by S"},
		{"predicate bound, probed by object", small, unit, Candidates{1: first(small, unit, 1)}, "probe by O"},
	}
	for _, c := range cases {
		sh := shapeOf(c.pat, c.row)
		pc := candsOf(c.pat, sh, c.cand)
		if got := armOf(st, sh, &pc); got != c.arm {
			t.Fatalf("%s: arm %q, want %q", c.name, got, c.arm)
		}
		if rows := collectMatches(st, c.pat, c.row, c.cand); len(rows) != 10 {
			t.Fatalf("%s: %d rows, want 10", c.name, len(rows))
		}
		emit := func(algebra.Row) bool { return true }
		allocs := func(cand Candidates) float64 {
			return testing.AllocsPerRun(50, func() { MatchPattern(st, c.pat, c.row, cand, emit) })
		}
		if plain, restricted := allocs(nil), allocs(c.cand); restricted != plain {
			t.Errorf("%s: %.0f allocations with candidates, %.0f without", c.name, restricted, plain)
		}
	}
}
