// Command benchjson emits the PR perf-tracking table as machine-readable
// JSON: the join micro-benchmarks (merge vs hash vs sort+merge physical
// operators), the Fig10 query workload (both engines, all strategies,
// both datasets), shard scaling, the live-ingest workload (write rate
// with a concurrent reader, read latency under ingest, compaction
// cost), and the compaction-fold comparison (full re-sort rebuild vs
// linear merge at several base:delta ratios). The output file is
// committed per PR (BENCH_5.json,
// BENCH_6.json, ...) so the perf trajectory of the hot paths is
// diffable across the repo's history:
//
//	benchjson -out BENCH_5.json          # full run
//	benchjson -reps 1                    # CI smoke (stdout)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sparqluo/internal/algebra"
	"sparqluo/internal/bench"
	"sparqluo/internal/benchbags"
	"sparqluo/internal/core"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
	"sparqluo/internal/wal"
)

// Micro is one micro-benchmark record.
type Micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// WorkloadRow is one (query, engine, strategy) measurement of the Fig10
// workload.
type WorkloadRow struct {
	Query      string  `json:"query"`
	Dataset    string  `json:"dataset"`
	Engine     string  `json:"engine"`
	Strategy   string  `json:"strategy"`
	Results    int     `json:"results"`
	ExecMs     float64 `json:"exec_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	PreparedMs float64 `json:"prepared_ms"`
}

// ShardRow is one (query, shard count) measurement of the Fig10
// workload through a range-partitioned sharded store with the parallel
// evaluator. k=1 exercises the sharded code path with a single shard,
// so its delta against the workload table is the wrapper's overhead.
// Scatter sizes its worker pool off GOMAXPROCS at call time (fully
// inline on a single processor), so the k>1 speedup column only moves
// on hosts with spare cores.
type ShardRow struct {
	Query    string  `json:"query"`
	Dataset  string  `json:"dataset"`
	Engine   string  `json:"engine"`
	Shards   int     `json:"shards"`
	Results  int     `json:"results"`
	PlainMs  float64 `json:"plain_ms"`
	ExecMs   float64 `json:"exec_ms"`
	SpeedupX float64 `json:"speedup_vs_k1"`
}

// UpdateRow is one run of the live-ingest workload: sustained write
// rate with a concurrent reader, the reader's latency distribution
// under ingest, and the cost of the closing compaction (fold time plus
// the largest reader-observed stall across the base swap).
type UpdateRow struct {
	Dataset     string  `json:"dataset"`
	BaseTriples int     `json:"base_triples"`
	Inserted    int     `json:"inserted"`
	Deleted     int     `json:"deleted"`
	Batch       int     `json:"batch"`
	IngestRate  float64 `json:"ingest_triples_per_s"`
	Reads       int     `json:"reads_under_ingest"`
	ReadP50Ms   float64 `json:"read_p50_ms"`
	ReadP99Ms   float64 `json:"read_p99_ms"`
	ReadMaxMs   float64 `json:"read_max_ms"`
	CompactMs   float64 `json:"compact_ms"`
	SwapPauseMs float64 `json:"swap_pause_ms"`
}

// WALRow is one run of the wal_durability workload: acknowledged write
// throughput and per-batch ack latency with the write-ahead journal
// attached under one sync policy, plus recovery-replay speed for the
// log the run produced (normalized per 100k triples). The delta between
// the always and never rows is the fsync tax group commit has to pay;
// the delta between never and the live_update table is the journal's
// framing overhead.
type WALRow struct {
	Sync          string  `json:"sync"`
	Batch         int     `json:"batch"`
	Batches       int     `json:"batches"`
	Triples       int     `json:"triples"`
	IngestRate    float64 `json:"ingest_triples_per_s"`
	WriteP50Ms    float64 `json:"write_p50_ms"`
	WriteP99Ms    float64 `json:"write_p99_ms"`
	WriteMaxMs    float64 `json:"write_max_ms"`
	Syncs         uint64  `json:"fsyncs"`
	WALBytes      int64   `json:"wal_bytes"`
	ReplaySeconds float64 `json:"replay_s"`
	ReplayPer100k float64 `json:"replay_s_per_100k"`
}

// FoldRow is one base:delta ratio of the compaction-fold comparison:
// the same delta folded into the same frozen base by the pre-fold
// full rebuild (tombstone hash filter + append + FromTriples re-sort
// of everything) versus the linear merge fold (store.MergeFold). The
// two outputs are verified byte-identical before either time is
// reported, so speedup_x is a pure algorithmic delta.
type FoldRow struct {
	BaseTriples int     `json:"base_triples"`
	Adds        int     `json:"adds"`
	Dels        int     `json:"dels"`
	Ratio       int     `json:"base_to_delta_ratio"`
	ResortMs    float64 `json:"resort_ms"`
	MergeMs     float64 `json:"merge_ms"`
	SpeedupX    float64 `json:"speedup_x"`
}

// Report is the top-level JSON document.
type Report struct {
	Micro    []Micro       `json:"microbench"`
	Workload []WorkloadRow `json:"workload"`
	Shard    []ShardRow    `json:"shard_scaling"`
	Update   []UpdateRow   `json:"live_update"`
	Fold     []FoldRow     `json:"compaction_fold"`
	WAL      []WALRow      `json:"wal_durability"`
	NumCPU   int           `json:"num_cpu"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	reps := flag.Int("reps", 3, "repetitions per workload measurement")
	flag.Parse()

	rep := Report{NumCPU: runtime.NumCPU()}
	rep.Micro = microBench()
	w, err := workload(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	rep.Workload = w
	s, err := shardScaling(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	rep.Shard = s
	u, err := liveUpdate(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	rep.Update = u
	f, err := compactionFold(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	rep.Fold = f
	wd, err := walDurability(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	rep.WAL = wd

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (%d micro, %d workload rows)\n",
		*out, len(rep.Micro), len(rep.Workload))
}

func microBench() []Micro {
	run := func(name string, f func(b *testing.B)) Micro {
		r := testing.Benchmark(f)
		return Micro{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	const n, fanout = 10000, 4
	return []Micro{
		run("JoinMerge/n=10000", func(b *testing.B) {
			x, y := benchbags.JoinPair(n, fanout, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.Join(x, y)
			}
		}),
		run("JoinHash/n=10000", func(b *testing.B) {
			x, y := benchbags.JoinPair(n, fanout, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.Join(x, y)
			}
		}),
		run("JoinSortMerge/n=10000", func(b *testing.B) {
			x, y := benchbags.JoinPair(n, fanout, true)
			y.Order = nil
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.Join(x, y)
			}
		}),
		run("LeftJoinMerge/n=10000", func(b *testing.B) {
			x, y := benchbags.JoinPair(n, fanout, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.LeftJoin(x, y)
			}
		}),
		run("LeftJoinHash/n=10000", func(b *testing.B) {
			x, y := benchbags.JoinPair(n, fanout, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.LeftJoin(x, y)
			}
		}),
		// The top-k family (make bench-topk): a full stable sort vs the
		// bounded heap keeping 20 rows, and the streaming merge join with
		// and without a 20-row output cap.
		run("TopKSortFull/n=100000", func(b *testing.B) {
			in := benchbags.SortInput(100000)
			keys := []algebra.SortKey{{Col: 0}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.SortByKeys(in, keys)
			}
		}),
		run("TopKHeap/n=100000,k=20", func(b *testing.B) {
			in := benchbags.SortInput(100000)
			keys := []algebra.SortKey{{Col: 0}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.TopK(in, keys, 20)
			}
		}),
		run("JoinMergeTop/n=10000,k=20", func(b *testing.B) {
			x, y := benchbags.JoinPair(n, fanout, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.JoinWith(x, y, algebra.JoinOpts{Max: 20})
			}
		}),
	}
}

func workload(reps int) ([]WorkloadRow, error) {
	bench.Reps = reps
	var rows []WorkloadRow
	for _, engine := range bench.Engines {
		for _, dataset := range []string{"LUBM", "DBpedia"} {
			st := bench.StoreFor(dataset)
			for _, q := range bench.Group1(dataset) {
				for _, strat := range core.Strategies {
					m, err := bench.RunOne(st, q, engine, strat)
					if err != nil {
						return nil, err
					}
					rows = append(rows, WorkloadRow{
						Query:      m.Query,
						Dataset:    m.Dataset,
						Engine:     m.Engine,
						Strategy:   m.Strategy,
						Results:    m.Results,
						ExecMs:     ms(m.ExecTime),
						ParallelMs: ms(m.Parallel),
						PreparedMs: ms(m.Prepared),
					})
				}
			}
		}
	}
	return rows, nil
}

// shardScaling times the Fig10 workload through 1-, 2- and 4-way
// sharded stores with the parallel evaluator (min of reps runs), and
// derives the speedup of each shard count over k=1 per query. An
// unsharded baseline (plain_ms) is measured interleaved with the shard
// runs, so the k=1 wrapper overhead is read off the same table under
// identical conditions. Result counts are cross-checked against the
// single store so the numbers can never come from a shard that dropped
// rows.
func shardScaling(reps int) ([]ShardRow, error) {
	var rows []ShardRow
	engine := bench.Engines[0]
	for _, dataset := range []string{"LUBM", "DBpedia"} {
		st := bench.StoreFor(dataset)
		for _, q := range bench.Group1(dataset) {
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.ID, err)
			}
			ref, err := bench.ExecOnce(parsed, st, engine, core.Full, 1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.ID, err)
			}
			measure := func(rd store.Reader, label string) (time.Duration, int, error) {
				runtime.GC() // the shard copies are big; keep GC out of the timed region
				var best time.Duration
				var results int
				for rep := 0; rep < reps; rep++ {
					res, err := bench.ExecOnce(parsed, rd, engine, core.Full, 0)
					if err != nil {
						return 0, 0, fmt.Errorf("%s %s: %w", q.ID, label, err)
					}
					if res.Bag.Len() != ref.Bag.Len() {
						return 0, 0, fmt.Errorf("%s %s: %d results, single store %d",
							q.ID, label, res.Bag.Len(), ref.Bag.Len())
					}
					results = res.Bag.Len()
					if rep == 0 || res.ExecTime < best {
						best = res.ExecTime
					}
				}
				return best, results, nil
			}
			plain, _, err := measure(st, "plain")
			if err != nil {
				return nil, err
			}
			var k1 time.Duration
			for _, k := range []int{1, 2, 4} {
				rd, err := bench.Sharded(st, k)
				if err != nil {
					return nil, fmt.Errorf("%s k=%d: %w", q.ID, k, err)
				}
				best, results, err := measure(rd, fmt.Sprintf("k=%d", k))
				if err != nil {
					return nil, err
				}
				if k == 1 {
					k1 = best
				}
				speedup := 0.0
				if best > 0 {
					speedup = float64(k1) / float64(best)
				}
				rows = append(rows, ShardRow{
					Query:    q.ID,
					Dataset:  dataset,
					Engine:   engine.Name(),
					Shards:   k,
					Results:  results,
					PlainMs:  ms(plain),
					ExecMs:   ms(best),
					SpeedupX: speedup,
				})
			}
		}
	}
	return rows, nil
}

// liveUpdate runs the live-ingest workload reps times and keeps the run
// with the highest sustained ingest rate (the latency percentiles come
// from the same run, so rate and latency always describe one execution).
func liveUpdate(reps int) ([]UpdateRow, error) {
	var best bench.UpdateResult
	for rep := 0; rep < reps; rep++ {
		r, err := bench.RunUpdateWorkload(8, 5, 256)
		if err != nil {
			return nil, err
		}
		if rep == 0 || r.IngestRate > best.IngestRate {
			best = r
		}
	}
	return []UpdateRow{{
		Dataset:     best.Dataset,
		BaseTriples: best.BaseTriples,
		Inserted:    best.Inserted,
		Deleted:     best.Deleted,
		Batch:       best.Batch,
		IngestRate:  best.IngestRate,
		Reads:       best.Reads,
		ReadP50Ms:   ms(best.ReadP50),
		ReadP99Ms:   ms(best.ReadP99),
		ReadMaxMs:   ms(best.ReadMax),
		CompactMs:   ms(best.CompactTime),
		SwapPauseMs: ms(best.SwapPause),
	}}, nil
}

// compactionFold times the compaction fold (full re-sort rebuild vs
// linear merge) at several base:delta ratios — 4:1 is a memtable let
// grow to a quarter of the base, 256:1 a frequent small fold; the
// merge advantage should widen with the ratio because only the delta
// is ever sorted.
func compactionFold(reps int) ([]FoldRow, error) {
	results, err := bench.RunCompactionFold(8, []int{4, 16, 64, 256}, reps)
	if err != nil {
		return nil, err
	}
	rows := make([]FoldRow, 0, len(results))
	for _, r := range results {
		rows = append(rows, FoldRow{
			BaseTriples: r.BaseTriples,
			Adds:        r.Adds,
			Dels:        r.Dels,
			Ratio:       r.Ratio,
			ResortMs:    ms(r.Resort),
			MergeMs:     ms(r.Merge),
			SpeedupX:    r.Speedup,
		})
	}
	return rows, nil
}

// walDurability runs the journaled-ingest workload under every sync
// policy, keeping the best-rate run per policy (latency percentiles
// come from the same run).
func walDurability(reps int) ([]WALRow, error) {
	var rows []WALRow
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		var best bench.WALResult
		for rep := 0; rep < reps; rep++ {
			r, err := bench.RunWALDurability(policy, 5, 256)
			if err != nil {
				return nil, err
			}
			if rep == 0 || r.IngestRate > best.IngestRate {
				best = r
			}
		}
		rows = append(rows, WALRow{
			Sync:          best.Sync,
			Batch:         best.Batch,
			Batches:       best.Batches,
			Triples:       best.Triples,
			IngestRate:    best.IngestRate,
			WriteP50Ms:    ms(best.WriteP50),
			WriteP99Ms:    ms(best.WriteP99),
			WriteMaxMs:    ms(best.WriteMax),
			Syncs:         best.Syncs,
			WALBytes:      best.WALBytes,
			ReplaySeconds: best.ReplaySeconds,
			ReplayPer100k: best.ReplayPer100k,
		})
	}
	return rows, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
