package sparqluo

import (
	"errors"
	"fmt"

	"sparqluo/internal/overlay"
	"sparqluo/internal/snapshot"
	"sparqluo/internal/store"
	"sparqluo/internal/wal"
)

// ErrFrozen is returned by write APIs (Add, AddAll, Load) on a frozen
// database without live updates enabled. It replaces the historical
// panic: a serving process must be able to reject a stray write
// without dying.
var ErrFrozen = errors.New("sparqluo: database is frozen (read-only)")

// ErrNotLive is returned by live-only APIs (Insert, Delete, Flush,
// StartCompaction) on a database without live updates enabled.
var ErrNotLive = errors.New("sparqluo: database is not live (call EnableLiveUpdates or OpenLive)")

// LiveStats is a point-in-time picture of the live-update overlay:
// memtable and tombstone counts, the write epoch, compaction
// bookkeeping, and (with a WAL attached) the journal's shape. Reported
// by DB.LiveStats and the /stats and /healthz endpoints.
type LiveStats = overlay.LiveStats

// WALStats is the journal slice of LiveStats: segment count and bytes,
// append/sync counters, and what recovery found at open.
type WALStats = wal.Stats

// CompactionStats describes one completed compaction.
type CompactionStats = overlay.CompactionStats

// WALSyncPolicy names the journal's durability policy. There is one,
// WALSyncAlways; see the wal package for the durability contract.
type WALSyncPolicy = wal.SyncPolicy

// WALSyncAlways is the one policy: a write returns only after a
// (group-committed) fsync covers its batch, so an acknowledged batch
// survives power loss.
const WALSyncAlways = wal.SyncAlways

// LiveOptions configures live updates on a database.
type LiveOptions struct {
	// SnapshotPath, if non-empty, makes every compaction persist the
	// compacted base image there with the atomic snapshot writer
	// (temp+fsync+rename) before swapping it in. A failed persist
	// aborts the compaction and keeps both the old in-memory base and
	// the old on-disk image serving; the pending writes stay in the
	// memtable for a later retry.
	SnapshotPath string

	// WALDir, if non-empty, attaches a write-ahead log in that
	// directory: every Insert/Delete batch is journaled before it is
	// acknowledged, opening the database replays whatever the log holds
	// (crash recovery), and compactions retire journal segments once
	// their batches live in a durably persisted image. Pair it with
	// SnapshotPath — the snapshot bounds replay time, the log closes
	// the durability window between compactions.
	WALDir string
	// WALSync is the journal's durability policy; WALSyncAlways is the
	// only one.
	WALSync WALSyncPolicy
	// WALSegmentBytes rotates journal segments at this size
	// (default 64 MiB).
	WALSegmentBytes int64
}

// RecoveryStats reports what the WAL replay recovered when the database
// was opened, via DB.Recovery.
type RecoveryStats struct {
	Batches        int   // journal records replayed
	Inserted       int   // triples in replayed insert batches
	Deleted        int   // triples in replayed delete batches
	TruncatedBytes int64 // torn-tail bytes discarded (the unacknowledged write in flight at the crash)
}

// CompactionOptions configures the background compactor started by
// DB.StartCompaction: Interval, Threshold and OnError.
type CompactionOptions = overlay.CompactionOptions

// OpenLive returns a live database: Insert/Delete work immediately,
// queries may run concurrently with writes, and a background compactor
// can fold the memtable into the frozen base. With opts.WALDir set it
// is also the crash-recovery entry point: surviving journal batches are
// replayed into the memtable before the database is returned (inspect
// DB.Recovery for what came back), and every subsequent write is
// journaled before it is acknowledged.
func OpenLive(opts LiveOptions) (*DB, error) {
	ls := overlay.New(nil, overlay.Options{SnapshotPath: opts.SnapshotPath})
	db := &DB{live: ls}
	if err := db.attachWAL(ls, opts); err != nil {
		return nil, err
	}
	return db, nil
}

// EnableLiveUpdates layers the mutable delta overlay over the
// database's current store, turning a loaded, snapshot-opened or
// shard-opened read-only database into a live one: subsequent Insert/Delete calls
// land in a memtable that queries see merged with the frozen base,
// snapshot-isolated per query. The database is frozen first if it is
// not already. With opts.WALDir set, surviving journal batches are
// replayed on top of the base before the call returns.
//
// Call it during startup, before the database is shared with other
// goroutines: the store swap itself is not synchronized.
func (db *DB) EnableLiveUpdates(opts LiveOptions) error {
	if db.Live() {
		return fmt.Errorf("sparqluo: live updates already enabled")
	}
	if err := db.Freeze(); err != nil {
		return fmt.Errorf("sparqluo: freezing base for live updates: %w", err)
	}
	ls := overlay.New(db.st, overlay.Options{SnapshotPath: opts.SnapshotPath})
	if err := db.attachWAL(ls, opts); err != nil {
		return err
	}
	db.st, db.live = nil, ls
	return nil
}

// attachWAL opens the journal named by opts.WALDir (a no-op when
// unset), replays its surviving batches into ls, and hands the log to
// the overlay. Replay happens before SetJournal, so
// recovered batches are not re-journaled — they already live in the
// segments that carried them here, and the next persisted compaction
// retires them.
func (db *DB) attachWAL(ls *overlay.LiveStore, opts LiveOptions) error {
	if opts.WALDir == "" {
		return nil
	}
	wlog, err := wal.Open(opts.WALDir, wal.Options{
		Sync:         opts.WALSync,
		SegmentBytes: opts.WALSegmentBytes,
	})
	if err != nil {
		return err
	}
	var rec RecoveryStats
	err = wlog.Replay(func(r wal.Record) error {
		rec.Batches++
		switch r.Kind {
		case wal.Insert:
			rec.Inserted += len(r.Triples)
			return ls.Insert(r.Triples...)
		default:
			rec.Deleted += len(r.Triples)
			return ls.Delete(r.Triples...)
		}
	})
	if err != nil {
		wlog.Close()
		return fmt.Errorf("sparqluo: wal replay: %w", err)
	}
	rec.TruncatedBytes = wlog.Stats().TruncatedBytes
	ls.SetJournal(wlog)
	db.wal = wlog
	db.recovery = &rec
	return nil
}

// Recovery reports what the WAL replay recovered when this database was
// opened; ok is false when no WAL is attached.
func (db *DB) Recovery() (rec RecoveryStats, ok bool) {
	if db.recovery == nil {
		return RecoveryStats{}, false
	}
	return *db.recovery, true
}

// Live reports whether live updates are enabled.
func (db *DB) Live() bool { return db.live != nil }

// Insert adds the given triples as one atomic batch: a query running
// concurrently sees either none or all of them (snapshot isolation by
// epoch). Inserting a triple that already exists is a no-op (RDF set
// semantics). With a WAL attached, a nil return means an fsync covers
// the batch, so it survives a crash or power loss. Requires live updates.
func (db *DB) Insert(ts ...Triple) error {
	if db.live == nil {
		return ErrNotLive
	}
	return db.live.Insert(ts...)
}

// Delete removes the given triples as one atomic batch, by writing
// tombstones that hide the targets immediately and annihilate them at
// the next compaction. Deleting an absent triple is a no-op. With a WAL
// attached, a nil return means an fsync covers the batch. Requires live
// updates.
func (db *DB) Delete(ts ...Triple) error {
	if db.live == nil {
		return ErrNotLive
	}
	return db.live.Delete(ts...)
}

// Flush synchronously compacts the memtable into the frozen base:
// tombstones annihilate their targets and the survivors are folded in
// by store.MergeFold — the current view's sorted deltas merged once per
// permutation of the base, so fold cost is proportional to base + delta
// and nothing is re-sorted — and (with a SnapshotPath configured) the
// new base is persisted atomically before the swap.
// After a Flush with no concurrent writers the database is quiesced —
// every read serves the frozen base's zero-copy paths, and results are
// byte-identical to a freshly frozen store over the same triples.
// Requires live updates.
func (db *DB) Flush() error {
	_, err := db.Compact()
	return err
}

// Compact is Flush with the compaction's statistics: how many triples
// the new base holds, how many net inserts and tombstones were folded
// in, how long it took, whether an image was persisted, and how many
// WAL segments the persist let it retire. Requires live updates.
func (db *DB) Compact() (CompactionStats, error) {
	if db.live == nil {
		return CompactionStats{}, ErrNotLive
	}
	return db.live.Compact()
}

// StartCompaction runs the background compactor: the memtable is
// folded into the base whenever it holds opts.Threshold pending
// operations, and in any case within opts.Interval of turning dirty.
// In-flight queries finish on the view they pinned; the only
// reader-visible pause is the base pointer swap. The returned stop
// function (idempotent) halts the compactor and waits for an in-flight
// compaction to finish. Requires live updates.
func (db *DB) StartCompaction(opts CompactionOptions) (stop func(), err error) {
	if db.live == nil {
		return nil, ErrNotLive
	}
	return db.live.StartCompaction(opts), nil
}

// LiveStats returns overlay statistics and whether the database is
// live.
func (db *DB) LiveStats() (LiveStats, bool) {
	if db.live == nil {
		return LiveStats{}, false
	}
	return db.live.LiveStats(), true
}

// FromStore wraps an existing single store in a DB, for advanced
// integrations and tests that build stores directly (e.g. with
// store.FromTriples). The database is frozen by construction.
func FromStore(st *store.Store) *DB { return &DB{st: st} }

// writeLiveSnapshot flushes the memtable and persists the quiesced
// base; see DB.WriteSnapshot.
func (db *DB) writeLiveSnapshot(path string) error {
	if err := db.live.Flush(); err != nil {
		return err
	}
	return snapshot.WriteFile(path, db.live.Base())
}
