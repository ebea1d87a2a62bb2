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
// data. A sharded store is a plain Reader — bound-subject lookups route
// to one shard, everything else is recombined in global order — so k
// measures the cost of that routing and recombination over a monolithic
// store, not a speedup: k=1 must stay close to the single store (its
// accessors hand back the one shard's views zero-copy), and k=2 and k=4
// pay the copies and k-way merges of cross-shard ranges. Every run is
// checked against the single store's result size and rows pulled, so a
// shard that drops or duplicates rows, or a sharded scan that does more
// work than the single store's, fails the benchmark. It is the only
// sharded traffic any benchmark of this repository generates.
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
						if res.Stats.RowsPulled != ref.Stats.RowsPulled {
							b.Fatalf("k=%d pulled %d rows, single store %d",
								k, res.Stats.RowsPulled, ref.Stats.RowsPulled)
						}
					}
				})
			}
		}
	}
}
