package bench

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparqluo/internal/core"
	"sparqluo/internal/lubm"
	"sparqluo/internal/overlay"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// UpdateResult is one run of the live-ingest workload: a writer streams
// insert/delete batches into a live overlay while readers execute a
// benchmark query against it, then a compaction folds the accumulated
// memtable. The read latencies answer "what does a query pay while the
// store mutates under it"; the swap pause answers "what do readers feel
// when the compacted base replaces the old one".
type UpdateResult struct {
	Dataset     string
	BaseTriples int
	Inserted    int // triples streamed through Insert
	Deleted     int // tombstones streamed through Delete
	Batch       int // triples per Insert call

	IngestSeconds float64
	IngestRate    float64 // acknowledged writes per second, readers running

	Reads   int // queries completed during ingest
	ReadP50 time.Duration
	ReadP99 time.Duration
	ReadMax time.Duration

	CompactTime time.Duration // synchronous fold of the full memtable
	// SwapPause is the longest stall a continuously querying reader
	// observed while the compaction ran (max gap between consecutive
	// query completions minus the reader's own median query time). It
	// bounds the reader-visible cost of the RCU base swap from above:
	// the swap itself is a pointer store, so most of any pause is
	// scheduler noise and cache refill, which is exactly what a serving
	// replica would feel.
	SwapPause time.Duration
}

// RunUpdateWorkload streams extra LUBM triples into a live overlay over
// a frozen base of baseUniversities, with one reader goroutine running
// a Group1 query in a closed loop throughout (insert pass, tombstone
// pass, re-insert pass). The final compaction is measured separately
// with the reader still running.
func RunUpdateWorkload(baseUniversities, extraUniversities, batch int) (UpdateResult, error) {
	all := lubm.Generate(lubm.DefaultConfig(baseUniversities + extraUniversities))
	base := store.New()
	// Split by generation order: the first baseUniversities' worth of
	// triples form the frozen base, the rest are the ingest stream.
	cut := len(all) * baseUniversities / (baseUniversities + extraUniversities)
	if err := base.AddAll(all[:cut]); err != nil {
		return UpdateResult{}, err
	}
	stream := all[cut:]
	ls := overlay.New(base, overlay.Options{})

	q := Group1("LUBM")[0]
	parsed, err := sparql.Parse(q.Text)
	if err != nil {
		return UpdateResult{}, err
	}
	engine := Engines[0]

	res := UpdateResult{
		Dataset:     "LUBM",
		BaseTriples: base.NumTriples(),
		Batch:       batch,
	}

	var (
		stopReader atomic.Bool
		latMu      sync.Mutex
		lats       []time.Duration
		lastDone   atomic.Int64 // monotonic ns of the last completed query
		maxGapNs   atomic.Int64 // updated only while gapWatch is set
		gapWatch   atomic.Bool
	)
	readerErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		lastDone.Store(0)
		for !stopReader.Load() {
			t0 := time.Now()
			if _, err := ExecOnce(parsed, ls, engine, core.Full, 1); err != nil {
				select {
				case readerErr <- err:
				default:
				}
				return
			}
			now := time.Since(start)
			if gapWatch.Load() {
				if prev := lastDone.Load(); prev > 0 {
					if gap := int64(now) - prev; gap > maxGapNs.Load() {
						maxGapNs.Store(gap)
					}
				}
			}
			lastDone.Store(int64(now))
			latMu.Lock()
			lats = append(lats, time.Since(t0))
			latMu.Unlock()
		}
	}()

	// Ingest: three passes over the extra universities — insert all,
	// tombstone all, re-insert all — in batches. Pass 2 makes tombstones
	// a first-class part of the measured merge path, pass 3 exercises
	// delete-then-re-add resolution, and the triple-length window gives
	// the reader enough completions for stable percentiles.
	ingestStart := time.Now()
	var inserted, deleted int
	for pass := 0; pass < 3; pass++ {
		for off := 0; off < len(stream); off += batch {
			b := stream[off:min(off+batch, len(stream))]
			if pass == 1 {
				ls.Delete(b...)
				deleted += len(b)
			} else {
				ls.Insert(b...)
				inserted += len(b)
			}
		}
	}
	ingestDur := time.Since(ingestStart)

	// Compaction, measured with the reader still hammering the store.
	gapWatch.Store(true)
	compactStart := time.Now()
	if _, err := ls.Compact(); err != nil {
		return UpdateResult{}, err
	}
	res.CompactTime = time.Since(compactStart)
	gapWatch.Store(false)

	stopReader.Store(true)
	wg.Wait()
	select {
	case err := <-readerErr:
		return UpdateResult{}, err
	default:
	}

	res.Inserted = inserted
	res.Deleted = deleted
	res.IngestSeconds = ingestDur.Seconds()
	if s := ingestDur.Seconds(); s > 0 {
		res.IngestRate = float64(inserted+deleted) / s
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.Reads = len(lats)
	if n := len(lats); n > 0 {
		res.ReadP50 = lats[n/2]
		res.ReadP99 = lats[n*99/100]
		res.ReadMax = lats[n-1]
		if pause := time.Duration(maxGapNs.Load()) - res.ReadP50; pause > 0 {
			res.SwapPause = pause
		}
	}
	return res, nil
}
