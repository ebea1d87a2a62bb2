package bench

import (
	"fmt"
	"testing"

	"sparqluo/internal/core"
	"sparqluo/internal/exec"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// BenchmarkShardScaling runs the Fig10 workload through 1-, 2- and
// 4-way sharded stores with the parallel evaluator, against the same
// data. k=1 measures the sharded wrapper's overhead over a monolithic
// store (it must stay negligible: a single shard's accessors hand back
// its views zero-copy); k=2 and k=4 show the scatter-gather speedup on scan-heavy
// queries. Every run is checked against the single store's result size,
// so a shard that drops or duplicates rows fails the benchmark. It is
// the only sharded traffic any benchmark of this repository generates.
func BenchmarkShardScaling(b *testing.B) {
	engine := exec.WCOEngine{}
	for _, dataset := range []string{"LUBM"} {
		st := StoreFor(dataset)
		for _, q := range Group1(dataset) {
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				b.Fatalf("%s: %v", q.ID, err)
			}
			ref, err := execOnce(parsed, st, engine, core.Full, 1)
			if err != nil {
				b.Fatalf("%s: %v", q.ID, err)
			}
			for _, k := range []int{1, 2, 4} {
				// What OpenShards assembles from a manifest, built in memory.
				shards, bounds, err := st.ShardBySubject(k)
				if err != nil {
					b.Fatalf("ShardBySubject(%d): %v", k, err)
				}
				rd, err := store.NewShardedStore(shards, bounds, st.Stats())
				if err != nil {
					b.Fatalf("NewShardedStore(%d): %v", k, err)
				}
				b.Run(fmt.Sprintf("%s/%s/k=%d", dataset, q.ID, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := execOnce(parsed, rd, engine, core.Full, 0)
						if err != nil {
							b.Fatal(err)
						}
						if res.Bag.Len() != ref.Bag.Len() {
							b.Fatalf("k=%d returned %d results, single store %d",
								k, res.Bag.Len(), ref.Bag.Len())
						}
					}
				})
			}
		}
	}
}
