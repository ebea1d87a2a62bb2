// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7). Each benchmark corresponds to one experiment; the
// sub-benchmark hierarchy mirrors the panels of the figure. Times are the
// benchmark's ns/op; result sizes and the join-space metric are attached
// as custom metrics. This file and ablation_bench_test.go are the one
// place the paper's numbers are regenerated; one pass over every cell:
//
//	go test -run '^$' -bench 'Table|Fig|Ablation' -benchtime 1x .
package sparqluo_test

import (
	"context"
	"fmt"
	"testing"

	"sparqluo/internal/bench"
	"sparqluo/internal/core"
	"sparqluo/internal/exec"
	"sparqluo/internal/lbr"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// engines are the two BGP execution engines the paper implements on
// (gStore-style WCO and Jena-style binary join).
var engines = []exec.Engine{exec.WCOEngine{}, exec.BinaryJoinEngine{}}

// fig12Scales are the LUBM scale factors (universities) of the
// scalability study, standing in for the paper's 0.5B–2B triples.
var fig12Scales = []int{5, 10, 15, 20}

// BenchmarkTable2Stats regenerates Table 2: dataset statistics.
func BenchmarkTable2Stats(b *testing.B) {
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := bench.StoreFor(dataset)
		b.Run(dataset, func(b *testing.B) {
			s := st.Stats()
			b.ReportMetric(float64(s.NumTriples), "triples")
			b.ReportMetric(float64(s.NumEntities), "entities")
			b.ReportMetric(float64(s.NumPreds), "predicates")
			b.ReportMetric(float64(s.NumLiterals), "literals")
			for i := 0; i < b.N; i++ {
				_ = st.Stats()
			}
		})
	}
}

// queryBench runs one (query, engine, strategy) cell b.N times and
// reports result count and join space.
func queryBench(b *testing.B, st *store.Store, q bench.Query, engine exec.Engine, strat core.Strategy) {
	b.Helper()
	parsed, err := sparql.Parse(q.Text)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.BuildPlan(parsed, st)
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = core.ExecPlan(context.Background(), plan, engine, strat, core.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Bag.Len()), "results")
	b.ReportMetric(core.JoinSpace(res.Tree, res.Stats), "joinspace")
}

// BenchmarkTable3QueryStats regenerates Table 3 (LUBM query statistics):
// the metrics columns are attached to each sub-benchmark.
func BenchmarkTable3QueryStats(b *testing.B) {
	benchQueryStats(b, "LUBM")
}

// BenchmarkTable4QueryStats regenerates Table 4 (DBpedia query statistics).
func BenchmarkTable4QueryStats(b *testing.B) {
	benchQueryStats(b, "DBpedia")
}

func benchQueryStats(b *testing.B, dataset string) {
	st := bench.StoreFor(dataset)
	queries := append(append([]bench.Query{}, bench.Group1(dataset)...), bench.Group2(dataset)...)
	for _, q := range queries {
		q := q
		b.Run(q.ID, func(b *testing.B) {
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := core.BuildPlan(parsed, st)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(plan.Tree.CountBGP()), "countBGP")
			b.ReportMetric(float64(plan.Tree.Depth()), "depth")
			var res *core.Result
			for i := 0; i < b.N; i++ {
				if res, err = core.ExecPlan(context.Background(), plan, exec.WCOEngine{}, core.Full, core.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Bag.Len()), "results")
		})
	}
}

// BenchmarkFig10Verification regenerates Figure 10: base/TT/CP/full
// execution time for q1.1–q1.6, per engine and dataset panel.
func BenchmarkFig10Verification(b *testing.B) {
	for _, engine := range engines {
		for _, dataset := range []string{"LUBM", "DBpedia"} {
			st := bench.StoreFor(dataset)
			for _, q := range bench.Group1(dataset) {
				for _, strat := range core.Strategies {
					name := fmt.Sprintf("%s/%s/%s/%s", engine.Name(), dataset, q.ID, strat)
					q, engine, strat := q, engine, strat
					b.Run(name, func(b *testing.B) {
						queryBench(b, st, q, engine, strat)
					})
				}
			}
		}
	}
}

// BenchmarkFig11JoinSpace regenerates Figure 11: execution time plus the
// join-space metric per strategy (join space is the "joinspace" metric of
// each sub-benchmark).
func BenchmarkFig11JoinSpace(b *testing.B) {
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := bench.StoreFor(dataset)
		for _, q := range bench.Group1(dataset) {
			for _, strat := range core.Strategies {
				name := fmt.Sprintf("%s/%s/%s", dataset, q.ID, strat)
				q, strat := q, strat
				b.Run(name, func(b *testing.B) {
					queryBench(b, st, q, exec.WCOEngine{}, strat)
				})
			}
		}
	}
}

// BenchmarkFig12Scalability regenerates Figure 12: full's execution time
// on q1.1–q1.6 across LUBM scale factors.
func BenchmarkFig12Scalability(b *testing.B) {
	for _, scale := range fig12Scales {
		st := bench.LUBMStore(scale)
		for _, q := range bench.LUBMGroup1 {
			q := q
			b.Run(fmt.Sprintf("U%d/%s", scale, q.ID), func(b *testing.B) {
				queryBench(b, st, q, exec.WCOEngine{}, core.Full)
			})
		}
	}
}

// BenchmarkFig13LBRComparison regenerates Figure 13: the full strategy
// against the LBR baseline on q2.1–q2.6.
func BenchmarkFig13LBRComparison(b *testing.B) {
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := bench.StoreFor(dataset)
		for _, q := range bench.Group2(dataset) {
			q := q
			b.Run(dataset+"/"+q.ID+"/LBR", func(b *testing.B) {
				parsed, err := sparql.Parse(q.Text)
				if err != nil {
					b.Fatal(err)
				}
				var n int
				for i := 0; i < b.N; i++ {
					res, err := lbr.Run(parsed, st)
					if err != nil {
						b.Fatal(err)
					}
					n = res.Bag.Len()
				}
				b.ReportMetric(float64(n), "results")
			})
			b.Run(dataset+"/"+q.ID+"/full", func(b *testing.B) {
				queryBench(b, st, q, exec.WCOEngine{}, core.Full)
			})
		}
	}
}
