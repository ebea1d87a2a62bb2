package sparqluo

import (
	"fmt"
	"os"

	"sparqluo/internal/snapshot"
)

// WriteSnapshot serializes the frozen database as a binary snapshot
// image at path (written atomically via a temp file + rename). The
// image can be reopened with OpenSnapshot in time independent of the
// dataset's parse-and-sort cost — the intended cold-start path for
// servers. The database must be frozen first.
//
// Snapshots are a cache, not an archival format: a build only reads the
// format version it writes, so regenerate images from the source data
// after upgrading. See internal/snapshot for the format and its
// integrity model.
func (db *DB) WriteSnapshot(path string) error {
	if db.Live() {
		// Quiesce first: flush the memtable into the base, then persist
		// the result. Writes accepted after the flush land in the next
		// image.
		return db.writeLiveSnapshot(path)
	}
	if db.loading() {
		return fmt.Errorf("sparqluo: DB must be frozen before writing a snapshot (call Freeze)")
	}
	return snapshot.WriteFile(path, db.st)
}

// WriteShards splits the frozen database into k subject-range shards
// and writes one snapshot image per shard next to path, plus a small
// CRC-checked manifest at path itself that records the ID range and
// triple count of every shard alongside the global statistics. The
// shard set reopens with OpenShards. Every file is written atomically
// (temp file + fsync + rename); the manifest is written last, so a
// partial write never yields an openable but incomplete set. It returns
// the paths of all files written (images first, manifest last). A live
// database is refused: write a snapshot of it instead.
func (db *DB) WriteShards(path string, k int) ([]string, error) {
	if db.st == nil {
		return nil, fmt.Errorf("sparqluo: WriteShards needs a frozen, non-live database (call Freeze)")
	}
	return snapshot.WriteShards(path, db.st, k)
}

// OpenSnapshot opens a snapshot image previously produced by
// WriteSnapshot, memory-mapping it where the platform allows. The
// returned database is frozen (read-only) by construction and ready
// for concurrent queries immediately; its indexes are zero-copy views
// of the mapped file. Call Close when done with it to release the
// mapping — and not before: results hold term strings that point into
// the mapped region.
func OpenSnapshot(path string) (*DB, error) {
	st, m, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	return &DB{st: st, mapping: m}, nil
}

// OpenShards opens a shard set written by WriteShards from its manifest
// at path: it memory-maps and checks every shard image in parallel,
// then folds the shards into one store — the store the set was split
// from, with the same indexes and statistics, so results and the rows
// each query pulls are those of a single-store database over the same
// data. The returned database is an ordinary frozen one: it can be
// snapshotted, resharded or made live. Call Close when done with it.
func OpenShards(path string) (*DB, error) {
	st, m, _, err := snapshot.OpenShards(path)
	if err != nil {
		return nil, err
	}
	return &DB{st: st, mapping: m}, nil
}

// IsShardManifest reports whether the file at path is a shard manifest
// written by WriteShards, by its leading magic bytes.
func IsShardManifest(path string) (bool, error) {
	return snapshot.SniffManifest(path)
}

// IsSnapshot reports whether the file at path is a snapshot image, by
// its leading magic bytes. Use it to auto-detect snapshot images versus
// N-Triples text when both are accepted from one flag or config key.
func IsSnapshot(path string) (bool, error) {
	return snapshot.Sniff(path)
}

// OpenFile opens path as a shard manifest (its images folded into one
// store, see OpenShards), a snapshot image (memory-mapped, see OpenSnapshot)
// or an N-Triples document (parsed, indexed and frozen), auto-detected
// by leading magic bytes. The returned database is frozen and ready for
// concurrent queries; source is "shards", "snapshot" or "ntriples", for
// startup logging. Both CLIs and the server accept data files through
// this one path.
func OpenFile(path string) (db *DB, source string, err error) {
	isManifest, err := IsShardManifest(path)
	if err != nil {
		return nil, "", err
	}
	if isManifest {
		db, err = OpenShards(path)
		if err != nil {
			return nil, "", err
		}
		return db, "shards", nil
	}
	isSnap, err := IsSnapshot(path)
	if err != nil {
		return nil, "", err
	}
	if isSnap {
		db, err = OpenSnapshot(path)
		if err != nil {
			return nil, "", err
		}
		return db, "snapshot", nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	db = Open()
	if err := db.Load(f); err != nil {
		return nil, "", fmt.Errorf("sparqluo: loading %s: %w", path, err)
	}
	if err := db.Freeze(); err != nil {
		return nil, "", fmt.Errorf("sparqluo: freezing %s: %w", path, err)
	}
	return db, "ntriples", nil
}

// Close releases the file mapping backing the database, if any, and,
// if a write-ahead log is attached, fsyncs and closes it. It is a no-op
// (and nil error) for databases built in memory with Open. After Close,
// the database — and any Results obtained from it — must not be used.
func (db *DB) Close() error {
	m := db.mapping
	db.mapping = nil
	var first error
	if w := db.wal; w != nil {
		db.wal = nil
		if err := w.Close(); err != nil {
			first = err
		}
	}
	if err := m.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
