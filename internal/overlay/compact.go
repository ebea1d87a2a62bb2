package overlay

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"sparqluo/internal/store"
)

// CompactionStats describes one compaction.
type CompactionStats struct {
	Merged    int           // triples in the base it produced
	Adds      int           // net memtable inserts folded in
	Dels      int           // tombstones annihilated against the base
	Took      time.Duration // end-to-end, including the optional persist
	Persisted bool          // a snapshot image was written
	// WALRetired is how many journal segments this compaction retired:
	// after its image was durably persisted, or after a fold that left
	// the base unchanged. It is 0 without a journal or a SnapshotPath —
	// unpersisted folds leave every segment in place, because recovery
	// would still need them.
	WALRetired int
}

// Compact freezes the memtable into the base by materialising a View:
// it claims the pending ops as a prefix of the memtable, takes the view
// of exactly that prefix — the published one when its epoch is current,
// otherwise built once, outside the write mutex — and hands the view's
// two deltas, already resolved against the base and already sorted per
// permutation, to store.MergeFold: one linear merge per base
// permutation, so fold cost is O(base + delta) and the ops are resolved
// and sorted once for readers and fold alike. It optionally persists
// the new base with the atomic snapshot writer, then swaps it in and
// drops the prefix from the memtable. Writes accepted while the
// compaction runs append behind the prefix and are never stalled;
// readers are paused only for the pointer swap (RCU-style — in-flight
// queries finish on the view they pinned).
//
// If the fold or the persist fails, the claimed ops stay in the
// memtable for a later compaction, the old base keeps serving, and the
// old on-disk image is untouched (the writer renames last). Compactions
// are serialized; a concurrent Compact blocks.
func (ls *LiveStore) Compact() (CompactionStats, error) {
	ls.compactMu.Lock()
	defer ls.compactMu.Unlock()
	start := time.Now()

	ls.mu.Lock()
	if len(ls.active) == 0 {
		ls.mu.Unlock()
		return CompactionStats{}, nil
	}
	// Cut the journal inside the same critical section that claims the
	// ops: appends are journaled under this mutex, so every batch in
	// the claim sits in a segment below the mark and every later batch
	// at or above it. A failed cut aborts the compaction before
	// anything is claimed. Without a SnapshotPath no image is ever
	// persisted, so no Retire would remove the segment a cut seals:
	// such a compaction leaves the journal alone.
	var mark uint64
	if ls.journal != nil && ls.opts.SnapshotPath != "" {
		var err error
		if mark, err = ls.journal.Cut(); err != nil {
			ls.mu.Unlock()
			return CompactionStats{}, fmt.Errorf("overlay: wal cut: %w", err)
		}
	}
	// Claim the pending ops as a prefix of the memtable. Writers only
	// append and compactions are serialized, so the prefix stays as it
	// is until the swap below drops it; the capped slice keeps it
	// read-only here.
	n := len(ls.active)
	base, ops, epoch := ls.base, ls.active[:n:n], ls.seq.Load()
	v := ls.cur.Load()
	ls.mu.Unlock()

	ls.compacting.Store(true)
	defer ls.compacting.Store(false)

	// The claim is the whole memtable at this epoch, so a view
	// published at this epoch is the view of the claim (same base,
	// same ops).
	if v == nil || v.epoch != epoch {
		v = newView(base, ops, epoch)
	}
	stats := CompactionStats{Adds: v.add.Len(), Dels: v.del.Len()}

	// abort leaves the claimed ops in the memtable for a later
	// compaction to retry. Its epoch bump is not required for
	// correctness (the visible triple set is unchanged) but keeps the
	// epoch a strict ledger of state transitions.
	abort := func() {
		ls.mu.Lock()
		ls.seq.Add(1)
		ls.mu.Unlock()
	}

	nb := base
	if !v.clean() {
		var err error
		if nb, err = store.MergeFold(base, v.add.SortedDelta, v.del.SortedDelta); err != nil {
			abort()
			stats.Took = time.Since(start)
			return stats, fmt.Errorf("overlay: compaction fold: %w", err)
		}
	}
	stats.Merged = nb.NumTriples()

	if ls.opts.SnapshotPath != "" && nb != base {
		if err := ls.writeSnapshot(ls.opts.SnapshotPath, nb); err != nil {
			abort()
			stats.Took = time.Since(start)
			return stats, fmt.Errorf("overlay: compaction persist: %w", err)
		}
		stats.Persisted = true
	}

	// The RCU-style swap: the only writer- or reader-visible pause is
	// this critical section — a pointer store and some bookkeeping.
	ls.mu.Lock()
	ls.base = nb
	ls.active = slices.Clone(ls.active[n:])
	ls.compactions++
	ls.lastCompact = time.Now()
	ls.lastCompactTook = time.Since(start)
	ls.lastCompactMerged = stats.Merged
	ls.seq.Add(1)
	ls.mu.Unlock()

	// Retire the journal below the mark once the claim no longer needs
	// it. Every batch below the mark is in the claim, so that is when
	// the claim lives in a durably persisted image, or when its fold
	// left the base unchanged (every insert already in the base, or
	// inserts and deletes that cancel): the claim then nets to nothing
	// against a base that recovery already rebuilds. Without a
	// SnapshotPath nothing was cut and nothing retires. A retire
	// failure after the swap is reported but non-fatal: the compaction
	// already applied, and leftover segments merely replay idempotently
	// (duplicate inserts are absorbed, deletes of absent triples skip).
	if ls.journal != nil && ls.opts.SnapshotPath != "" {
		n, err := ls.journal.Retire(mark)
		stats.WALRetired = n
		if err != nil {
			stats.Took = time.Since(start)
			return stats, fmt.Errorf("overlay: wal retire (compaction applied): %w", err)
		}
	}

	stats.Took = time.Since(start)
	return stats, nil
}

// Flush synchronously compacts the memtable into the base. After a
// Flush with no concurrent writers, the LiveStore is quiesced: the
// memtable is empty and every accessor serves the frozen base's
// zero-copy paths.
func (ls *LiveStore) Flush() error {
	_, err := ls.Compact()
	return err
}

// CompactionOptions configures the background compactor.
type CompactionOptions struct {
	// Interval is the maximum time the memtable may stay dirty before a
	// compaction runs (default 30s).
	Interval time.Duration
	// Threshold is the raw op count that triggers an immediate
	// compaction (default 10000).
	Threshold int
	// OnError, if non-nil, receives background compaction failures
	// (e.g. a full disk under SnapshotPath). The compactor keeps
	// running — the memtable retains the ops and a later pass retries.
	OnError func(error)
}

// StartCompaction runs a background compactor: a polling loop (at a
// tenth of Interval, clamped to [10ms, 1s]) that compacts as soon as
// the memtable holds Threshold ops, and in any case once the memtable
// has been dirty for Interval. The returned stop function halts the
// loop and waits for an in-flight compaction to finish; it is
// idempotent.
func (ls *LiveStore) StartCompaction(opts CompactionOptions) (stop func()) {
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if opts.Threshold <= 0 {
		opts.Threshold = 10000
	}
	poll := opts.Interval / 10
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(poll)
		defer tick.Stop()
		lastClean := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if ls.pendingOps() == 0 {
				lastClean = time.Now()
				continue
			}
			if ls.pendingOps() >= opts.Threshold || time.Since(lastClean) >= opts.Interval {
				if _, err := ls.Compact(); err != nil && opts.OnError != nil {
					opts.OnError(err)
				}
				lastClean = time.Now()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
