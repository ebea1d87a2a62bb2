package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"sparqluo"
	"sparqluo/internal/rdf"
)

// live_ingest_read: one writer streaming insert and delete batches
// through the write-ahead log beside one reader, over a live database
// whose background compactor persists a snapshot image. It ends with a
// crash check: the journal and the last image are copied aside without
// Flush or Close, reopened, and compared with what was acknowledged.

const (
	liveBulkBatch  = 16384 // set-up insert batch, in triples
	liveReadEvery  = 8     // every 8th reader operation is the medium q1.2
	liveCrashCheck = 64    // triples checked on each side of the crash point
)

// liveDB is an open live database and where its files are.
type liveDB struct {
	db       *sparqluo.DB
	dir      string
	img, wal string
}

func openLive(dir string) (*liveDB, error) {
	l := &liveDB{dir: dir, img: filepath.Join(dir, "base.img"), wal: filepath.Join(dir, "wal")}
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{SnapshotPath: l.img, WALDir: l.wal, WALSync: sparqluo.WALSyncAlways})
	if err != nil {
		return nil, err
	}
	l.db = db
	return l, nil
}

// setupLive generates LUBM, opens a live database, inserts the base
// universities and compacts them into the first persisted image. The
// remaining universities are what the writer streams.
func setupLive(cfg config, rp *report) (*liveDB, []rdf.Triple, []rdf.Triple, error) {
	baseUnivs := cfg.sc.lubmUnivs * 6 / 10
	var totals []float64
	var l *liveDB
	var base, rest []rdf.Triple
	for i := range cfg.sc.setupRepeats {
		if l != nil {
			if err := l.db.Close(); err != nil {
				return nil, nil, nil, err
			}
			os.RemoveAll(l.dir)
		}
		runtime.GC() // as in setup: start each build from a collected heap
		t0 := time.Now()
		ts := genLUBM(cfg.sc.lubmUnivs, cfg.seed)
		cut := len(ts)
		for j, t := range ts {
			if univOf(t) >= baseUnivs {
				cut = j
				break
			}
		}
		// Cloned apart so the base triples can be freed once loaded.
		base, rest = slices.Clone(ts[:cut]), slices.Clone(ts[cut:])
		var err error
		if l, err = openLive(filepath.Join(rp.tmp, fmt.Sprintf("live-%d", i))); err != nil {
			return nil, nil, nil, err
		}
		for lo := 0; lo < len(base); lo += liveBulkBatch {
			if err := l.db.Insert(base[lo:min(lo+liveBulkBatch, len(base))]...); err != nil {
				return nil, nil, nil, err
			}
		}
		if _, err := l.db.Compact(); err != nil {
			return nil, nil, nil, err
		}
		totals = append(totals, time.Since(t0).Seconds())
	}
	rp.m.set("setup_s", "s", median(totals), len(totals))
	mem := l.db.MemStats()
	rp.m.set("bytes_per_triple", "B", float64(mem.TotalBytes)/float64(l.db.NumTriples()), 1)
	rp.m.set("store.index_bytes", "B", float64(mem.TotalBytes), 1)
	if fi, err := os.Stat(l.img); err == nil {
		rp.m.set("snapshot.image_bytes_per_triple", "B", float64(fi.Size())/float64(l.db.NumTriples()), 1)
	}
	return l, base, rest, nil
}

// writerState is where the cyclic writer stood after its last
// acknowledged batch: done batches of the current pass, which inserts
// when deleting is false.
type writerState struct {
	deleting bool
	done     int
}

// present reports whether batch i is in the database in this state.
func (s writerState) present(i int) bool {
	if s.deleting {
		return i >= s.done
	}
	return i < s.done
}

// liveWriter streams rest in walBatch-triple batches: one pass inserts
// every batch, the next deletes them, and so on.
type liveWriter struct {
	db      *sparqluo.DB
	batches [][]rdf.Triple
	state   writerState
	acks    [2][]time.Duration // [0] insert, [1] delete
	triples int
}

func newLiveWriter(db *sparqluo.DB, rest []rdf.Triple) *liveWriter {
	w := &liveWriter{db: db}
	for lo := 0; lo < len(rest); lo += walBatch {
		w.batches = append(w.batches, rest[lo:min(lo+walBatch, len(rest))])
	}
	return w
}

// step writes the next batch and returns how many triples it held.
func (w *liveWriter) step() (int, error) {
	b := w.batches[w.state.done]
	t0 := time.Now()
	var err error
	kind := 0
	if w.state.deleting {
		kind = 1
		err = w.db.Delete(b...)
	} else {
		err = w.db.Insert(b...)
	}
	if err != nil {
		return 0, err
	}
	w.acks[kind] = append(w.acks[kind], time.Since(t0))
	w.triples += len(b)
	if w.state.done++; w.state.done == len(w.batches) {
		w.state = writerState{deleting: !w.state.deleting}
	}
	return len(b), nil
}

func (w *liveWriter) report(m metrics, triplesPerSecond float64) {
	all := append(append([]time.Duration(nil), w.acks[0]...), w.acks[1]...)
	m.set("ingest_triples_per_s", "1/s", triplesPerSecond, len(all))
	m.set("write_ack_p95_ms", "ms", percentile(durs(all, ms), 95), len(all))
	m.set("overlay.insert_batch_us_p50", "us", median(durs(w.acks[0], us)), len(w.acks[0]))
	m.set("overlay.delete_batch_us_p50", "us", median(durs(w.acks[1], us)), len(w.acks[1]))
}

// liveReader issues the reader's operations: hot templates, and every
// liveReadEvery-th a q1.2, whose result spans every university and so
// grows and shrinks with the writer; it is checked by row count, which
// can only exceed what the base universities alone gave.
type liveReader struct {
	db     *sparqluo.DB
	hot    []*query
	medium []*query
	pick   *hotPicker
	rng    *rand.Rand
}

func (r *liveReader) do(i int) error {
	if i%liveReadEvery == liveReadEvery-1 {
		q := r.medium[r.rng.Intn(len(r.medium))]
		_, rows, err := queryAPI(r.db, op{q, sparqluo.WCO})
		if err == nil && rows < q.want[sparqluo.WCO].rows {
			err = fmt.Errorf("%s: %d rows, fewer than the %d the base universities give", q.id, rows, q.want[sparqluo.WCO].rows)
		}
		return err
	}
	o := op{r.hot[r.pick.next()], sparqluo.WCO}
	sum, _, err := queryAPI(r.db, o)
	if err != nil {
		return err
	}
	return o.verify(sum)
}

func runLive(cfg config, rp *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	l, base, rest, err := setupLive(cfg, rp)
	if err != nil {
		return err
	}
	defer l.db.Close()

	// Constants come from the base universities only, so the hot
	// templates' results do not depend on what the writer has done.
	consts := pickConsts(rng, lubmDepts(base), hotConsts)
	base = nil
	rd := &liveReader{db: l.db, hot: hotPool(consts), rng: rng}
	rd.pick = newHotPicker(rng, hotConsts, true)
	for v, c := range consts {
		rd.medium = append(rd.medium, lubmQuery("q1.2", v, c))
	}
	if err := primeAll(rp, l.db, append(rd.hot, rd.medium...), sparqluo.WCO); err != nil {
		return err
	}
	w := newLiveWriter(l.db, rest)

	if !cfg.trace {
		if err := liveMeasured(cfg, rp, l, w, rd); err != nil {
			return err
		}
		return crashCheck(rp, l, w)
	}
	tr, err := liveTraced(cfg, rp, l, w, rd)
	if err != nil {
		return err
	}
	if err := crashCheck(rp, l, w); err != nil {
		return err
	}
	return finishTrace(cfg, rp, tr, nil, rest)
}

// livePace is the paced writer's rate in the read phase, in batches per
// second: 10,240 triples/s, a few percent of what the writer reaches
// alone, so three goroutines do not fight over two processors and the
// memtable the reader's view is rebuilt from stays small.
const livePace = 40

// liveMeasured is the end-to-end run, in two phases of half the
// measured time each, compaction in the background throughout:
//
//	ingest  the writer alone, closed loop: ingest rate and ack latency
//	read    the writer paced at livePace beside one closed-loop reader:
//	        query latency and rate under a fixed ingest load
//
// Writer, reader and compactor all at full speed on two processors
// measured mostly how the scheduler happened to interleave them: ingest
// rate and read latency each varied by 15 % between identical runs.
func liveMeasured(cfg config, rp *report, l *liveDB, w *liveWriter, rd *liveReader) error {
	stop, err := l.db.StartCompaction(sparqluo.CompactionOptions{
		Threshold: cfg.sc.compactThresh,
		Interval:  time.Second, // polls every 100 ms; at either write rate the threshold fires first
		// Runs on the compactor's goroutine; nothing else touches rp
		// until stop() has waited for that goroutine.
		OnError: func(err error) { rp.fail(fmt.Errorf("compaction: %w", err)) },
	})
	if err != nil {
		return err
	}
	defer stop()
	half := seconds(cfg) / 2
	settle()
	rss := startRSS()

	// Ingest rate is the median over loopWindows slices of the phase,
	// like the closed loops' metrics.
	var perWindow [loopWindows]float64
	start := time.Now()
	for time.Since(start) < half {
		n, err := w.step()
		if err != nil {
			return fmt.Errorf("writer: %w", err)
		}
		if at := int(time.Since(start) / (half / loopWindows)); at < loopWindows {
			perWindow[at] += float64(n) / (half / loopWindows).Seconds()
		}
	}
	w.report(rp.m, median(perWindow[:]))
	// The reader's q1.2 spans every university, so its cost follows how
	// much the writer has inserted. Finish the pass pair, untimed, so
	// the read phase always starts from the base universities alone.
	for w.state != (writerState{}) {
		if _, err := w.step(); err != nil {
			return fmt.Errorf("writer: %w", err)
		}
	}

	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	start = time.Now()
	go func() {
		defer wg.Done()
		for i := 0; werr == nil; i++ {
			due := time.Duration(i) * time.Second / livePace
			if due >= half {
				return
			}
			time.Sleep(due - time.Since(start))
			_, werr = w.step()
		}
	}()
	t := closedLoop(1, half, func(_, i int) error { return rd.do(i) })
	wg.Wait()
	stop()
	peak, n := rss.done()
	if werr != nil {
		return fmt.Errorf("writer: %w", werr)
	}
	rp.m.set("peak_rss_mb", "MB", peak, n)
	rp.loop(t)
	rp.attempted += len(w.acks[0]) + len(w.acks[1])
	ls, _ := l.db.LiveStats()
	rp.m.count("overlay.compactions", float64(ls.Compactions))
	rp.m.count("wal.fsyncs", float64(ls.WAL.Syncs))
	return nil
}

// liveTraced is the traced run. The writer makes a fixed number of
// writes — one insert pass and one delete pass — and compacts
// synchronously whenever cfg.sc.compactThresh operations are pending,
// so the overlay, journal and snapshot counters repeat exactly; the
// reader runs beside it to show what a base swap costs a query.
func liveTraced(cfg config, rp *report, l *liveDB, w *liveWriter, rd *liveReader) (*tracer, error) {
	tr := newTracer()
	sizes := make([]int64, len(w.batches)) // user bytes per batch
	var userBytes int64
	for i, b := range w.batches {
		n, err := ntriplesBytes(b)
		if err != nil {
			return nil, err
		}
		sizes[i] = n
		userBytes += 2 * n // written once by the insert pass, once by the delete pass
	}

	done := make(chan struct{})
	rt := newTally(1, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			sp := tr.begin("live.read", 0, 0)
			err := rd.do(i)
			rt.add(0, tr.end(sp), err)
		}
	}()

	walBytes := func() int64 {
		ls, _ := l.db.LiveStats()
		return ls.WAL.Bytes
	}
	var (
		pending, peak, compactions, retired int
		compactTotal                        time.Duration
		rewritten, journaled                int64
		journalAt                           = walBytes()
		ratios                              []float64 // cumulative journal ÷ user bytes at each compaction
		userSoFar                           int64
	)
	compact := func(op int) error {
		before := walBytes()
		journaled += before - journalAt
		sp := tr.begin("overlay.compact", 0, op)
		cs, err := l.db.Compact()
		tr.end(sp)
		if err != nil {
			return err
		}
		journalAt = walBytes()
		compactions++
		compactTotal += cs.Took
		retired += cs.WALRetired
		if fi, err := os.Stat(l.img); err == nil && cs.Persisted {
			rewritten += fi.Size()
		}
		ratios = append(ratios, float64(journaled)/float64(userSoFar))
		pending = 0
		return nil
	}
	start := time.Now()
	var werr error
	for i := 0; i < 2*len(w.batches) && werr == nil; i++ {
		name := "overlay.insert"
		if w.state.deleting {
			name = "overlay.delete"
		}
		bytes := sizes[w.state.done]
		sp := tr.begin(name, 0, i+1)
		var n int
		n, werr = w.step()
		tr.end(sp)
		userSoFar += bytes
		pending += n
		peak = max(peak, pending)
		if pending >= cfg.sc.compactThresh && werr == nil {
			werr = compact(i + 1)
		}
	}
	// The writes since the last compaction stay in the journal, for the
	// crash check to replay.
	journaled += walBytes() - journalAt
	elapsed := time.Since(start)
	close(done)
	wg.Wait()
	if werr != nil {
		return nil, fmt.Errorf("writer: %w", werr)
	}

	rt.rate = float64(rt.attempted-rt.failed) / elapsed.Seconds()
	rp.loop(rt)
	w.report(rp.m, float64(w.triples)/elapsed.Seconds())
	rp.attempted += len(w.acks[0]) + len(w.acks[1])
	ls, _ := l.db.LiveStats()
	rp.m.count("overlay.compactions", float64(compactions))
	rp.m.set("overlay.compact_ms_total", "ms", ms(compactTotal), compactions)
	rp.m.count("overlay.memtable_ops_peak", float64(peak))
	rp.m.count("wal.fsyncs", float64(ls.WAL.Syncs))
	rp.m.set("wal.bytes_written", "B", float64(journaled), 1)
	rp.m.set("wal.bytes_per_user_byte", "ratio", float64(journaled)/float64(userBytes), compactions)
	rp.m.count("wal.segments_retired", float64(retired))
	rp.m.set("snapshot.bytes_rewritten", "B", float64(rewritten), compactions)
	// Levelled off: the cumulative ratio at the last compaction against
	// the one two thirds of the way through.
	if n := len(ratios); n >= 3 {
		rp.m.set("wal.bytes_per_user_byte.drift_last_third", "ratio", ratios[n-1]/ratios[n*2/3-1]-1, n)
	}

	// The stall a base swap imposes on reads: the longest read that
	// overlapped a compaction.
	stall := time.Duration(0)
	var compacts []span
	for _, s := range tr.spans {
		if s.Name == "overlay.compact" {
			compacts = append(compacts, s)
		}
	}
	for _, s := range tr.spans {
		if s.Name != "live.read" {
			continue
		}
		for _, c := range compacts {
			if s.Start < c.End && c.Start < s.End {
				stall = max(stall, s.dur())
			}
		}
	}
	rp.m.set("overlay.read_stall_ms_max", "ms", ms(stall), rt.attempted)
	return tr, nil
}

// ntriplesBytes is the size of ts as an N-Triples document: the user
// data a write carries.
func ntriplesBytes(ts []rdf.Triple) (int64, error) {
	var w digestWriter
	enc := rdf.NewEncoder(&w)
	for _, t := range ts {
		if err := enc.Encode(t); err != nil {
			return 0, err
		}
	}
	return w.n, enc.Flush()
}

// crashCheck copies the journal and the last persisted image aside
// while the database is still open and unflushed — what a crash at this
// instant would leave behind — recovers from the copy, and checks the
// writes around the crash point: every acknowledged insert present,
// every acknowledged delete absent. The operating system's cache is
// intact, so this checks that acknowledgement follows the journal
// write, not that the device flushed.
func crashCheck(rp *report, l *liveDB, w *liveWriter) error {
	crash := filepath.Join(l.dir, "crash")
	if err := os.CopyFS(filepath.Join(crash, "wal"), os.DirFS(l.wal)); err != nil {
		return err
	}
	if err := copyFile(l.img, filepath.Join(crash, "base.img")); err != nil {
		return err
	}
	t0 := time.Now()
	rec, err := sparqluo.OpenSnapshot(filepath.Join(crash, "base.img"))
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer rec.Close()
	t1 := time.Now()
	if err := rec.EnableLiveUpdates(sparqluo.LiveOptions{WALDir: filepath.Join(crash, "wal"), WALSync: sparqluo.WALSyncAlways}); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	t2 := time.Now()
	rp.m.set("recovery_s", "s", t2.Sub(t0).Seconds(), 1)
	rp.m.set("snapshot.open_ms", "ms", ms(t1.Sub(t0)), 1)
	rp.m.set("wal.replay_s", "s", t2.Sub(t1).Seconds(), 1)

	lost := 0
	rp.attempted++
	if got, want := rec.NumTriples(), l.db.NumTriples(); got != want {
		lost++
		rp.fail(fmt.Errorf("recovery: %d triples, the database that did not crash holds %d", got, want))
	}
	// The last acknowledged batch and the one the writer would have
	// written next sit on either side of the crash point. A triple that
	// occurs in both (LUBM repeats a few) says nothing either way.
	n := len(w.batches)
	last, next := w.batches[(w.state.done+n-1)%n], w.batches[w.state.done]
	inLast := map[string]bool{}
	for _, t := range last {
		inLast[t.String()] = true
	}
	inBoth := map[string]bool{}
	for _, t := range next {
		if k := t.String(); inLast[k] {
			inBoth[k] = true
		}
	}
	for _, side := range []struct {
		batch []rdf.Triple
		index int
	}{{last, (w.state.done + n - 1) % n}, {next, w.state.done}} {
		want := w.state.present(side.index)
		for _, t := range side.batch[:min(len(side.batch), liveCrashCheck)] {
			if inBoth[t.String()] {
				continue
			}
			got, err := holds(rec, t)
			if err != nil {
				return err
			}
			rp.attempted++
			if got != want {
				lost++
				rp.fail(fmt.Errorf("recovery: %s present=%v, acknowledged writes say %v", t, got, want))
			}
		}
	}
	rp.m.count("acked_lost", float64(lost))
	return nil
}

// holds reports whether db contains triple t.
func holds(db *sparqluo.DB, t rdf.Triple) (bool, error) {
	res, err := db.Query(fmt.Sprintf("SELECT ?o WHERE { %s %s ?o }", t.S, t.P))
	if err != nil {
		return false, err
	}
	for _, sol := range res.Solutions() {
		if sol["o"].Equal(t.O) {
			return true, nil
		}
	}
	return false, nil
}

func copyFile(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
