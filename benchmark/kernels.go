package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sparqluo"
	"sparqluo/internal/algebra"
	"sparqluo/internal/benchbags"
	"sparqluo/internal/rdf"
	"sparqluo/internal/wal"
)

// Micro-kernels for the layers no query path isolates: fixed, seeded
// inputs, run in every traced run so these layers' metrics exist
// whichever workload is traced.

// bestOf returns the fastest of n runs of f: for a fixed in-memory
// kernel the minimum is the least disturbed reading.
func bestOf(n int, f func()) time.Duration {
	best := time.Duration(0)
	for range n {
		t0 := time.Now()
		f()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}

const kernelReps = 5

// algebraKernels times the join, left-join, distinct and top-k
// operators on rows × rows operands built by internal/benchbags.
func algebraKernels(m metrics, rows int) {
	const fanout = 4
	perRow := func(name string, f func()) {
		m.set(name, "ns", float64(bestOf(kernelReps, f))/float64(rows), kernelReps)
	}
	x, y := benchbags.JoinPair(rows, fanout, true)
	perRow("algebra.join_merge_ns_row", func() { algebra.Join(x, y) })
	perRow("algebra.leftjoin_ns_row", func() { algebra.LeftJoin(x, y) })
	hx, hy := benchbags.JoinPair(rows, fanout, false)
	perRow("algebra.join_hash_ns_row", func() { algebra.Join(hx, hy) })
	in := benchbags.SortInput(rows)
	perRow("algebra.distinct_ns_row", func() { algebra.Distinct(in) })
	keys := []algebra.SortKey{{Col: 0}}
	perRow("algebra.topk_ns_row", func() { algebra.TopK(in, keys, 20) })
}

// rdfKernel times decoding the first n triples of ts from N-Triples.
func rdfKernel(m metrics, ts []rdf.Triple, n int) error {
	n = min(n, len(ts))
	var buf bytes.Buffer
	enc := rdf.NewEncoder(&buf)
	for _, t := range ts[:n] {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	var err error
	d := bestOf(kernelReps, func() {
		dec := rdf.NewDecoder(bytes.NewReader(buf.Bytes()))
		got := 0
		for {
			if _, e := dec.Decode(); e != nil {
				if e != io.EOF {
					err = e
				}
				break
			}
			got++
		}
		if got != n && err == nil {
			err = fmt.Errorf("rdf kernel: decoded %d of %d triples", got, n)
		}
	})
	m.set("rdf.decode_triples_per_s", "1/s", float64(n)/d.Seconds(), kernelReps)
	return err
}

// snapshotKernel writes db as a snapshot image and maps it back.
func snapshotKernel(m metrics, db *sparqluo.DB, dir string) error {
	path := filepath.Join(dir, "kernel.img")
	t0 := time.Now()
	if err := db.WriteSnapshot(path); err != nil {
		return err
	}
	m.set("snapshot.write_s", "s", time.Since(t0).Seconds(), 1)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("snapshot.image_bytes_per_triple", "B", float64(fi.Size())/float64(db.NumTriples()), 1)
	t0 = time.Now()
	back, err := sparqluo.OpenSnapshot(path)
	if err != nil {
		return err
	}
	m.set("snapshot.open_ms", "ms", ms(time.Since(t0)), 1)
	ok := back.NumTriples() == db.NumTriples()
	if err := back.Close(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("snapshot kernel: image holds a different number of triples than the database")
	}
	return nil
}

// walBatch is the live writer's batch size, in triples.
const walBatch = 256

// walKernel times journaling one writer batch under the always-fsync
// policy: Append plus the Sync the acknowledgement waits for.
func walKernel(m metrics, ts []rdf.Triple, dir string) error {
	log, err := wal.Open(filepath.Join(dir, "kernel-wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	const batches = 40
	var lats []time.Duration
	for i := range batches {
		lo := (i * walBatch) % max(len(ts)-walBatch, 1)
		t0 := time.Now()
		seq, err := log.Append(wal.Insert, ts[lo:min(lo+walBatch, len(ts))])
		if err == nil {
			err = log.Sync(seq)
		}
		if err != nil {
			log.Close()
			return err
		}
		lats = append(lats, time.Since(t0))
	}
	m.set("wal.append_sync_us_p50", "us", median(durs(lats, us)), len(lats))
	return log.Close()
}
