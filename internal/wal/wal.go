// Package wal is the write-ahead log that makes live updates durable
// between compactions. The overlay's memtable is the only copy of an
// acknowledged Insert/Delete until the background compactor folds it
// into a persisted base image — without a log, a crash in that window
// silently loses acknowledged writes. The WAL closes it: every write
// batch is framed and appended to a segmented on-disk log before it is
// acknowledged, and recovery is "open the newest snapshot, replay the
// live segments" — the same differential-index + log pairing production
// triple stores in the RDF-3X lineage use.
//
// # Format
//
// A log is a directory of segment files named %016x.wal by a
// monotonically increasing segment index. Each segment starts with a
// 24-byte header:
//
//	magic "SPQLWALS" · u32 version · u64 segment index · u32 CRC32-C(header[:20])
//
// followed by length-prefixed records:
//
//	u32 CRC32-C(frame[4:]) · u32 body length · body
//	body = u8 kind · uvarint batch ID · uvarint payload length · payload
//
// The payload is an N-Triples document (one line per triple in the
// batch). Text, not dictionary IDs, deliberately: dictionary IDs are
// assigned in arrival order and differ between the crashed process and
// the recovered one, while the N-Triples encoding is stable, self-
// describing, and replays through the exact ingest path a client would
// use. All integers are little-endian; the CRC is CRC32-C (Castagnoli,
// hardware-accelerated), the same polynomial the snapshot format uses.
//
// # Durability contract
//
// An acknowledged batch is an fsynced batch. Append writes the frame
// with a single write syscall (no user-space buffer), so an appended
// record survives a process crash (kill -9) even before any fsync;
// Sync is what makes it survive power loss. It returns only once an
// fsync covering the batch has completed, with group commit:
// concurrent writers coalesce into one fsync (one leader syncs the
// file tail, followers observe their batch is already covered and
// return without touching the disk).
//
// A failed segment write or fsync poisons the log: the first such error
// is kept, and Append, Sync and Cut return it wrapped in ErrFailed from
// then on. An fsync is never retried — on Linux a retry can succeed
// after the kernel dropped the dirty pages, which would acknowledge a
// batch that never reached the device — and nothing is appended behind
// a possibly torn frame. Close still closes; reopening and replaying
// the directory is the way back.
//
// # Recovery
//
// Open validates every segment front to back. A torn final record —
// the tail the process was writing when it died — is silently truncated
// (reported in Stats.TruncatedBytes so callers can log it). Corruption
// anywhere earlier in the stream is a *CorruptError: the log refuses to
// open rather than silently dropping acknowledged history, and it never
// panics on any input (FuzzWALReplay holds it to the same bar as
// FuzzSnapshotLoad). Replay then streams the surviving records in
// append order.
//
// # Checkpointing
//
// Cut rotates to a fresh segment and returns its index as a checkpoint
// mark; Retire(mark) deletes every segment below the mark. An overlay
// compactor that persists images cuts when it claims the memtable and
// retires only after the folded base image is durably persisted, so
// the log and the snapshot writer together form the recovery pair:
// segments at or above the mark hold exactly the batches the newest
// snapshot does not.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparqluo/internal/rdf"
)

// Kind discriminates the two batch kinds a record can hold.
type Kind uint8

const (
	// Insert is a batch of inserted triples.
	Insert Kind = 1
	// Delete is a batch of tombstoned triples.
	Delete Kind = 2
)

func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logged write batch.
type Record struct {
	Kind    Kind
	Batch   uint64 // monotonically increasing batch ID
	Triples []rdf.Triple
}

// SyncPolicy names the log's durability policy. There is one,
// SyncAlways; the type remains so configurations that name it keep
// compiling.
type SyncPolicy int

// SyncAlways is the one policy: Sync fsyncs (group-committed) before it
// returns, so an acknowledged batch survives power loss.
const SyncAlways SyncPolicy = 0

// Options configures a Log.
type Options struct {
	// Sync is the durability policy; SyncAlways is the only one.
	Sync SyncPolicy
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (default 64 MiB). Checkpoints rotate regardless.
	SegmentBytes int64
}

const (
	segmentSuffix = ".wal"
	headerSize    = 24
	frameHeader   = 8 // u32 crc + u32 body length
	version       = 1

	defaultSegmentBytes = 64 << 20

	// maxBodyBytes bounds a single record frame; a length field beyond
	// it is treated as framing damage, not an allocation request.
	maxBodyBytes = 1 << 30
)

// magic identifies a WAL segment file.
var magic = [8]byte{'S', 'P', 'Q', 'L', 'W', 'A', 'L', 'S'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports corruption in the middle of the log stream —
// damage that cannot be a torn final write and therefore would silently
// drop acknowledged batches if ignored. Open and Replay return it
// (wrapped) instead of truncating; they never panic.
type CorruptError struct {
	Segment string // segment file path
	Offset  int64  // byte offset of the bad frame or header
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log: %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// ErrFailed wraps the first write or fsync error of a poisoned log (see
// the durability contract); match it with errors.Is.
var ErrFailed = errors.New("wal: log failed, reopen and replay to recover")

// Stats is a point-in-time picture of the log, reported by /stats and
// /healthz via the overlay.
type Stats struct {
	Segments       int       // live segment files, including the active one
	Bytes          int64     // total bytes across live segments
	Appended       uint64    // records appended since Open
	Syncs          uint64    // fsyncs issued since Open
	LastSync       time.Time // completion time of the last fsync (Open counts as one)
	LastBatch      uint64    // ID of the most recently appended batch
	Replayed       int       // records recovered by the Open-time scan
	TruncatedBytes int64     // torn-tail bytes discarded at Open
}

// segment is one live segment file.
type segment struct {
	index uint64
	bytes int64 // current size, header included
}

// Log is an append-only segmented write-ahead log. All methods are safe
// for concurrent use; Replay must be called (if at all) before the
// first Append.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File  // active segment
	segments []segment // ascending by index; last is active
	closed   bool
	failed   error // sticky: the first write or fsync error, wrapped in ErrFailed

	nextBatch   uint64
	lastBatch   uint64 // most recently appended batch ID
	syncedBatch uint64 // highest batch ID covered by a completed fsync
	appended    uint64
	syncs       uint64
	lastSync    time.Time

	syncing  bool // an fsync is in flight with mu released
	syncCond *sync.Cond

	replayed       int
	truncatedBytes int64
}

// Open opens (creating if needed) the write-ahead log in dir. Every
// existing segment is validated front to back: a torn final record is
// truncated away (Stats.TruncatedBytes reports how many bytes), while
// corruption earlier in the stream returns a *CorruptError. Appends
// resume in the last segment with the next batch ID.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextBatch: 1}
	l.syncCond = sync.NewCond(&l.mu)

	indexes, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, idx := range indexes {
		final := i == len(indexes)-1
		seg, n, maxBatch, truncated, err := validateSegment(l.segmentPath(idx), idx, final)
		if err != nil {
			return nil, err
		}
		if seg.bytes < 0 {
			// A final segment whose header never made it to disk (crash
			// during rotation): recreate it empty below.
			continue
		}
		l.segments = append(l.segments, seg)
		l.replayed += n
		l.truncatedBytes += truncated
		if maxBatch >= l.nextBatch {
			l.nextBatch = maxBatch + 1
		}
	}
	l.lastBatch = l.nextBatch - 1
	l.syncedBatch = l.lastBatch // everything found on disk is as durable as it gets

	// Open (or create) the active segment for appending.
	if len(l.segments) == 0 {
		if err := l.openSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		active := &l.segments[len(l.segments)-1]
		f, err := os.OpenFile(l.segmentPath(active.index), os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(active.bytes, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}
	l.lastSync = time.Now()
	return l, nil
}

func (l *Log) segmentPath(index uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%016x%s", index, segmentSuffix))
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var indexes []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		indexes = append(indexes, idx)
	}
	slices.Sort(indexes)
	return indexes, nil
}

// openSegmentLocked creates a fresh segment with the given index, makes
// its directory entry durable, and installs it as the active file.
// Called with mu held (or during Open before the log is shared).
func (l *Log) openSegmentLocked(index uint64) error {
	path := l.segmentPath(index)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint64(hdr[12:], index)
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], castagnoli))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	// The segment must exist under its name before any record in it is
	// acknowledged; fsyncing the directory makes the creation durable.
	syncDir(l.dir)
	l.f = f
	l.segments = append(l.segments, segment{index: index, bytes: headerSize})
	return nil
}

// failLocked poisons the log with err unless an earlier failure already
// did, and returns the sticky error. Called with mu held.
func (l *Log) failLocked(op string, err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %s: %w", ErrFailed, op, err)
	}
	return l.failed
}

// rotateLocked seals the active segment (fsync + close) and opens a
// fresh one. Called with mu held; waits out any in-flight group-commit
// fsync so the file is never closed under it (and re-checks the poison
// state, which that fsync may have set).
func (l *Log) rotateLocked() error {
	for l.syncing {
		l.syncCond.Wait()
	}
	if l.failed != nil {
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		return l.failLocked("sealing segment", err)
	}
	if err := l.f.Close(); err != nil {
		return l.failLocked("sealing segment", err)
	}
	// Everything appended so far now sits in sealed, synced segments.
	l.syncedBatch = l.lastBatch
	l.syncs++
	l.lastSync = time.Now()
	// The sealed file is closed: without a successor there is nothing
	// left to append to.
	if err := l.openSegmentLocked(l.segments[len(l.segments)-1].index + 1); err != nil {
		return l.failLocked("opening segment", err)
	}
	return nil
}

// encodeRecord frames one batch: crc | len | kind | batch | payload-len
// | N-Triples payload. The payload is written once, behind room for the
// longest head; the head then fills the bytes right before it.
func encodeRecord(kind Kind, batch uint64, ts []rdf.Triple) []byte {
	var head [1 + 2*binary.MaxVarintLen64]byte
	const room = frameHeader + len(head)
	buf := make([]byte, room, room+128*len(ts)) // most lines are shorter; append grows past it
	for _, t := range ts {
		buf = append(rdf.AppendTriple(buf, t), '\n')
	}
	h := append(head[:0], byte(kind))
	h = binary.AppendUvarint(h, batch)
	h = binary.AppendUvarint(h, uint64(len(buf)-room))
	frame := buf[room-frameHeader-len(h):]
	copy(frame[frameHeader:], h)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(frame)-frameHeader))
	binary.LittleEndian.PutUint32(frame[0:], crc32.Checksum(frame[4:], castagnoli))
	return frame
}

// Append frames one write batch and appends it to the active segment
// with a single write syscall, returning the batch ID. The record
// survives a process crash as soon as Append returns; call Sync with
// the returned ID before acknowledging the batch to make it survive
// power loss.
func (l *Log) Append(kind Kind, ts []rdf.Triple) (uint64, error) {
	if kind != Insert && kind != Delete {
		return 0, fmt.Errorf("wal: append: bad kind %d", kind)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	batch := l.nextBatch
	frame := encodeRecord(kind, batch, ts)
	active := &l.segments[len(l.segments)-1]
	if active.bytes > headerSize && active.bytes+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		active = &l.segments[len(l.segments)-1]
	}
	if _, err := l.f.Write(frame); err != nil {
		// A partial write is exactly the torn tail recovery truncates;
		// the batch is not acknowledged, so nothing is lost — as long as
		// nothing is ever appended behind it.
		return 0, l.failLocked("append", err)
	}
	active.bytes += int64(len(frame))
	l.nextBatch++
	l.lastBatch = batch
	l.appended++
	return batch, nil
}

// Sync makes the batch durable: it returns only once a completed fsync
// covers the batch, issuing one itself if nobody else's does first, so
// concurrent callers coalesce into one fsync (group commit).
func (l *Log) Sync(batch uint64) error {
	l.mu.Lock()
	for {
		if l.failed != nil {
			l.mu.Unlock()
			return l.failed
		}
		if l.syncedBatch >= batch {
			l.mu.Unlock()
			return nil
		}
		if l.closed {
			l.mu.Unlock()
			return fmt.Errorf("wal: sync on closed log")
		}
		if !l.syncing {
			break
		}
		// A leader's fsync is in flight; wait for its verdict and
		// re-check — it may already cover this batch.
		l.syncCond.Wait()
	}
	// Become the leader: fsync the file tail with the lock released, so
	// concurrent appends keep flowing and later Sync callers queue up
	// behind this one fsync.
	l.syncing = true
	f, target := l.f, l.lastBatch
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		// The followers woken below find the log poisoned and return the
		// same error; none becomes a leader and retries.
		err = l.failLocked("sync", err)
	} else {
		l.syncedBatch = max(l.syncedBatch, target)
		l.syncs++
		l.lastSync = time.Now()
	}
	l.syncCond.Broadcast()
	l.mu.Unlock()
	return err
}

// Cut seals the active segment and rotates to a fresh one, returning
// the new segment's index as a checkpoint mark: every batch appended
// before Cut lives in segments below the mark, every batch appended
// after lives at or above it. Call it at the instant a compaction
// claims the memtable (under the same lock that orders writes), then
// Retire(mark) once the folded base is durably persisted.
func (l *Log) Cut() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: cut on closed log")
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.segments[len(l.segments)-1].index, nil
}

// Retire deletes every segment with index below mark — they hold only
// batches the newest persisted snapshot already folded in — and returns
// how many files were removed. Retiring with a stale mark is harmless;
// retiring before the snapshot covering the mark is durable is how you
// lose data, which is why the overlay calls it only after the atomic
// snapshot writer returns.
func (l *Log) Retire(mark uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: retire on closed log")
	}
	removed := 0
	var firstErr error
	kept := make([]segment, 0, len(l.segments))
	for _, seg := range l.segments {
		if seg.index < mark && firstErr == nil {
			if err := os.Remove(l.segmentPath(seg.index)); err != nil && !os.IsNotExist(err) {
				// Keep the segment listed: replaying a segment that
				// should have died is idempotent, a hole is not.
				firstErr = fmt.Errorf("wal: retire: %w", err)
				kept = append(kept, seg)
				continue
			}
			removed++
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	if removed > 0 {
		syncDir(l.dir)
	}
	return removed, firstErr
}

// Stats returns a point-in-time picture of the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Segments:       len(l.segments),
		Appended:       l.appended,
		Syncs:          l.syncs,
		LastSync:       l.lastSync,
		LastBatch:      l.lastBatch,
		Replayed:       l.replayed,
		TruncatedBytes: l.truncatedBytes,
	}
	for _, seg := range l.segments {
		s.Bytes += seg.bytes
	}
	return s
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close fsyncs and closes the active segment. The log must not be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.syncing {
		l.syncCond.Wait()
	}
	l.closed = true
	f := l.f
	l.f = nil
	l.syncCond.Broadcast()
	l.mu.Unlock()
	var first error
	if err := f.Sync(); err != nil {
		first = err
	}
	if err := f.Close(); err != nil && first == nil {
		first = err
	}
	if first != nil {
		return fmt.Errorf("wal: close: %w", first)
	}
	return nil
}

// syncDir fsyncs a directory so renames, creations and removals in it
// survive power loss. Best effort: platforms and filesystems that
// cannot fsync a directory (Windows, some network mounts) degrade to
// the metadata durability the OS provides, never to an error — the
// data itself is always synced through the file handle.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	d.Sync()
}
