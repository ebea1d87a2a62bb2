package core

import (
	"context"
	"testing"

	"sparqluo/internal/bench"
	"sparqluo/internal/exec"
	"sparqluo/internal/sparql"
)

// topkJoinQuery is the LIMIT push-down showcase: a 2-pattern BGP whose
// scans both lead with the shared variable ?y. Both engines answer a
// capped execution by depth-first extension — each ?x ub:worksFor ?y
// match is extended through ?z ub:memberOf ?y before the next is drawn —
// which stops after 20 output rows instead of materializing either scan.
const topkJoinQuery = `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE { ?x ub:worksFor ?y . ?z ub:memberOf ?y }`

// runTopK executes topkJoinQuery on the cached LUBM-13 store with the
// given engine and window, returning the result.
func runTopK(tb testing.TB, engine exec.Engine, opts ExecOptions) *Result {
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
	res, err := ExecPlan(context.Background(), plan, engine, Base, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestLimitPushdownRowsPulled pins the point of the top-k machinery, on
// both engines: LIMIT 20 on the join query must draw at least 10x fewer
// operand rows than running the same plan to completion, and no more
// than depth-first extension needs — every department here has members,
// so each worksFor match drawn yields a row, and the window fills after
// at most 20 worksFor and 20 memberOf matches (2×20+1 allows one more
// draw). The rows it does return must be the exact prefix of the full
// result.
func TestLimitPushdownRowsPulled(t *testing.T) {
	const limit = 20
	for _, engine := range []exec.Engine{exec.WCOEngine{}, exec.BinaryJoinEngine{}} {
		t.Run(engine.Name(), func(t *testing.T) {
			full := runTopK(t, engine, ExecOptions{})
			capped := runTopK(t, engine, ExecOptions{Limit: limit, LimitSet: true})
			if capped.Bag.Len() != limit {
				t.Fatalf("capped run returned %d rows, want %d", capped.Bag.Len(), limit)
			}
			for i := 0; i < limit; i++ {
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
			if capped.Stats.RowsPulled > 2*limit+1 {
				t.Errorf("rows pulled: capped %d, want at most %d", capped.Stats.RowsPulled, 2*limit+1)
			}
			t.Logf("rows pulled: full=%d capped=%d (%.0fx)", full.Stats.RowsPulled,
				capped.Stats.RowsPulled, float64(full.Stats.RowsPulled)/float64(capped.Stats.RowsPulled))
		})
	}
}

// BenchmarkTopKQueryFull and BenchmarkTopKQueryLimit20 bracket the
// query-level win: same plan, same engine, with and without the window.
func BenchmarkTopKQueryFull(b *testing.B) {
	runTopK(b, exec.BinaryJoinEngine{}, ExecOptions{}) // warm the dataset cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTopK(b, exec.BinaryJoinEngine{}, ExecOptions{})
	}
}

func BenchmarkTopKQueryLimit20(b *testing.B) {
	runTopK(b, exec.BinaryJoinEngine{}, ExecOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTopK(b, exec.BinaryJoinEngine{}, ExecOptions{Limit: 20, LimitSet: true})
	}
}
