package core

import (
	"context"
	"testing"

	"sparqluo/internal/bench"
	"sparqluo/internal/exec"
	"sparqluo/internal/sparql"
)

// topkJoinQuery is the LIMIT push-down showcase: a 2-pattern BGP whose
// pb-scans both lead with the shared variable ?y, so the binary engine
// answers a capped execution with a streaming merge join that stops
// after 20 output rows instead of materializing both scans.
const topkJoinQuery = `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE { ?x ub:worksFor ?y . ?z ub:memberOf ?y }`

// runTopK executes topkJoinQuery on the cached LUBM-13 store with the
// binary engine and the given window, returning the result.
func runTopK(tb testing.TB, opts ExecOptions) *Result {
	tb.Helper()
	st := bench.StoreFor("LUBM")
	parsed, err := sparql.Parse(topkJoinQuery)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := BuildPlan(parsed, st)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ExecPlan(context.Background(), plan, exec.BinaryJoinEngine{}, Base, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestLimitPushdownRowsPulled pins the point of the top-k machinery:
// LIMIT 20 on the merge-join query must draw at least 10x fewer operand
// rows than running the same plan to completion, and the rows it does
// return must be the exact prefix of the full result.
func TestLimitPushdownRowsPulled(t *testing.T) {
	full := runTopK(t, ExecOptions{Parallelism: 1})
	capped := runTopK(t, ExecOptions{Parallelism: 1, Limit: 20, LimitSet: true})
	if capped.Bag.Len() != 20 {
		t.Fatalf("capped run returned %d rows, want 20", capped.Bag.Len())
	}
	for i := 0; i < 20; i++ {
		want, got := full.Bag.Row(i), capped.Bag.Row(i)
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("row %d differs: %v vs %v", i, got, want)
			}
		}
	}
	if full.Stats.RowsPulled < 10*capped.Stats.RowsPulled {
		t.Errorf("rows pulled: capped %d vs full %d — want at least 10x reduction",
			capped.Stats.RowsPulled, full.Stats.RowsPulled)
	}
	t.Logf("rows pulled: full=%d capped=%d (%.0fx)", full.Stats.RowsPulled,
		capped.Stats.RowsPulled, float64(full.Stats.RowsPulled)/float64(capped.Stats.RowsPulled))
}

// BenchmarkTopKQueryFull and BenchmarkTopKQueryLimit20 bracket the
// query-level win: same plan, same engine, with and without the window.
func BenchmarkTopKQueryFull(b *testing.B) {
	runTopK(b, ExecOptions{Parallelism: 1}) // warm the dataset cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTopK(b, ExecOptions{Parallelism: 1})
	}
}

func BenchmarkTopKQueryLimit20(b *testing.B) {
	runTopK(b, ExecOptions{Parallelism: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTopK(b, ExecOptions{Parallelism: 1, Limit: 20, LimitSet: true})
	}
}
