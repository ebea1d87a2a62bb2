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

// scanStore holds two predicates of 200 and 20,000 triples, plus a
// predicate whose triples repeat their subject as object for every
// third subject.
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
	cands := Candidates{0: {}}
	var wantCand []algebra.Row
	for _, r := range bruteMatches(st, large, 2) {
		if r[0]%5 == 0 {
			cands[0][r[0]] = struct{}{}
			wantCand = append(wantCand, r)
		}
	}
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
