package sparqluo_test

import (
	"context"
	"fmt"
	"testing"

	"sparqluo/internal/bench"
	"sparqluo/internal/core"
	"sparqluo/internal/exec"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// BenchmarkAblationTransforms isolates the contribution of the two
// BE-tree transformation kinds: TT with only merge, only inject, both,
// or neither (base), on the Group 1 queries. Merge targets UNION queries, inject targets OPTIONAL queries; the
// per-query ablation shows which transformation carries each speedup.
func BenchmarkAblationTransforms(b *testing.B) {
	variants := []struct {
		name                        string
		disableMerge, disableInject bool
	}{
		{"none", true, true},
		{"merge-only", false, true},
		{"inject-only", true, false},
		{"both", false, false},
	}
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := bench.StoreFor(dataset)
		for _, q := range bench.Group1(dataset) {
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := core.Build(parsed, st)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range variants {
				name := fmt.Sprintf("%s/%s/%s", dataset, q.ID, v.name)
				v := v
				b.Run(name, func(b *testing.B) {
					benchAblated(b, st, tree, v.disableMerge, v.disableInject)
				})
			}
		}
	}
}

func benchAblated(b *testing.B, st *store.Store, tree *core.Tree, disableMerge, disableInject bool) {
	b.Helper()
	engine := exec.WCOEngine{}
	work := tree.Clone()
	tr := core.NewTransformer(context.Background(), st, engine)
	tr.DisableMerge = disableMerge
	tr.DisableInject = disableInject
	applied := tr.Transform(work)
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag, _, _ := core.EvaluateContext(context.Background(), work, st, engine, core.Pruning{})
		rows = bag.Len()
	}
	b.StopTimer()
	b.ReportMetric(float64(applied), "transforms")
	b.ReportMetric(float64(rows), "results")
}

// BenchmarkAblationCPThreshold sweeps the candidate-pruning threshold
// (fractions of the triple count) on the nested-OPTIONAL queries where CP
// matters most, exposing the sensitivity behind §6's 1% default.
func BenchmarkAblationCPThreshold(b *testing.B) {
	fracs := []float64{0.0001, 0.001, 0.01, 0.1}
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := bench.StoreFor(dataset)
		for _, q := range bench.Group1(dataset)[2:4] { // q1.3, q1.4
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := core.Build(parsed, st)
			if err != nil {
				b.Fatal(err)
			}
			for _, frac := range fracs {
				threshold := int(float64(st.NumTriples()) * frac)
				if threshold < 1 {
					threshold = 1
				}
				name := fmt.Sprintf("%s/%s/frac=%g", dataset, q.ID, frac)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						core.EvaluateContext(context.Background(), tree, st, exec.WCOEngine{}, core.Pruning{
							Enabled:        true,
							FixedThreshold: threshold,
						})
					}
				})
			}
		}
	}
}

// TestAblatedTransformersPreserveSemantics guards the ablation variants:
// whatever subset of transformations runs, results must not change.
func TestAblatedTransformersPreserveSemantics(t *testing.T) {
	st := bench.LUBMStore(3)
	engine := exec.WCOEngine{}
	for _, q := range bench.LUBMGroup1 {
		parsed, err := sparql.Parse(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := core.Build(parsed, st)
		if err != nil {
			t.Fatal(err)
		}
		base, _, _ := core.EvaluateContext(context.Background(), tree, st, engine, core.Pruning{})
		for _, v := range []struct{ dm, di bool }{{true, true}, {false, true}, {true, false}, {false, false}} {
			work := tree.Clone()
			tr := core.NewTransformer(context.Background(), st, engine)
			tr.DisableMerge, tr.DisableInject = v.dm, v.di
			tr.Transform(work)
			got, _, _ := core.EvaluateContext(context.Background(), work, st, engine, core.Pruning{})
			if got.Len() != base.Len() {
				t.Errorf("%s ablation %+v: %d rows, want %d", q.ID, v, got.Len(), base.Len())
			}
		}
	}
}
