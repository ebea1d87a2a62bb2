package bench

import (
	"fmt"
	"testing"
	"time"

	"sparqluo/internal/core"
	"sparqluo/internal/lubm"
	"sparqluo/internal/overlay"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// liveBase builds a fresh frozen LUBM base for a live-update benchmark.
// The store is not taken from the package cache: the overlay shares the
// base's dictionary, and benchmark writes must not grow the dictionary
// under the cached stores other benchmarks reuse.
func liveBase(b *testing.B, universities int) *store.Store {
	b.Helper()
	st := store.New()
	if err := st.AddAll(lubm.Generate(lubm.DefaultConfig(universities))); err != nil {
		b.Fatal(err)
	}
	st.Freeze()
	return st
}

func synthTriple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://bench/s%d", i)),
		P: rdf.NewIRI(fmt.Sprintf("http://bench/p%d", i%16)),
		O: rdf.NewIRI(fmt.Sprintf("http://bench/o%d", i%1024)),
	}
}

// BenchmarkLiveInsert measures the acknowledged write path: encode,
// append to the memtable, bump the epoch. One triple per op.
func BenchmarkLiveInsert(b *testing.B) {
	ls := overlay.New(liveBase(b, 1), overlay.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.Insert(synthTriple(i))
	}
}

// BenchmarkLiveInsertBatch64 is the same path amortized over 64-triple
// batches, the shape HTTP /update produces.
func BenchmarkLiveInsertBatch64(b *testing.B) {
	ls := overlay.New(liveBase(b, 1), overlay.Options{})
	batch := make([]rdf.Triple, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = synthTriple(i*64 + j)
		}
		ls.Insert(batch...)
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkLiveCompact measures folding a 5000-op memtable into the
// base. Iterations alternate between inserting and tombstoning the same
// block, so every compaction does real merge work in both directions
// and the base does not grow monotonically with b.N.
func BenchmarkLiveCompact(b *testing.B) {
	ls := overlay.New(liveBase(b, 1), overlay.Options{})
	block := make([]rdf.Triple, 5000)
	for j := range block {
		block[j] = synthTriple(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%2 == 0 {
			ls.Insert(block...)
		} else {
			ls.Delete(block...)
		}
		b.StartTimer()
		if _, err := ls.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveReadUnderIngest measures query latency on a live store
// while a writer goroutine streams batches and the background compactor
// folds them — the serving-replica steady state. Compare against the
// same query in BenchmarkFig10/workload tables for the overlay's read
// overhead.
func BenchmarkLiveReadUnderIngest(b *testing.B) {
	ls := overlay.New(liveBase(b, 2), overlay.Options{})
	stop := ls.StartCompaction(overlay.CompactionOptions{
		Interval:  50 * time.Millisecond,
		Threshold: 20000,
	})
	defer stop()
	writerDone := make(chan struct{})
	defer close(writerDone)
	go func() {
		const window = 64 * 128
		for i := 0; ; i++ {
			select {
			case <-writerDone:
				return
			default:
			}
			batch := make([]rdf.Triple, 64)
			for j := range batch {
				batch[j] = synthTriple((i*64 + j) % window)
			}
			if i%2 == 0 {
				ls.Insert(batch...)
			} else {
				ls.Delete(batch...)
			}
		}
	}()

	q := Group1("LUBM")[0]
	parsed, err := sparql.Parse(q.Text)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecOnce(parsed, ls, Engines[0], core.Full, 1); err != nil {
			b.Fatal(err)
		}
	}
}
