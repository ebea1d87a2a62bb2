package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sparqluo/internal/rdf"
)

func triple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://wal/s%d", i)),
		P: rdf.NewIRI("http://wal/p"),
		O: rdf.NewLiteral(fmt.Sprintf("o%d\nwith \"escapes\"", i)),
	}
}

func batch(from, n int) []rdf.Triple {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = triple(from + i)
	}
	return ts
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendSync(t *testing.T, l *Log, kind Kind, ts []rdf.Triple) uint64 {
	t.Helper()
	seq, err := l.Append(kind, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(seq); err != nil {
		t.Fatal(err)
	}
	return seq
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRoundTrip proves every appended batch comes back byte-identical:
// kinds, batch IDs, triple order, and literal escapes all survive the
// frame/payload encoding and a reopen.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	want := [][]rdf.Triple{batch(0, 3), batch(3, 1), batch(4, 5)}
	kinds := []Kind{Insert, Delete, Insert}
	for i, ts := range want {
		seq := appendSync(t, l, kinds[i], ts)
		if seq != uint64(i+1) {
			t.Fatalf("batch %d got seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Kind != kinds[i] || r.Batch != uint64(i+1) {
			t.Fatalf("record %d: kind=%v batch=%d", i, r.Kind, r.Batch)
		}
		if len(r.Triples) != len(want[i]) {
			t.Fatalf("record %d: %d triples, want %d", i, len(r.Triples), len(want[i]))
		}
		for j, tr := range r.Triples {
			if tr != want[i][j] {
				t.Fatalf("record %d triple %d: %v != %v", i, j, tr, want[i][j])
			}
		}
	}
	// Batch IDs resume past everything replayed.
	if seq, err := l.Append(Insert, batch(100, 1)); err != nil || seq != uint64(len(want)+1) {
		t.Fatalf("resumed seq = %d, err %v; want %d", seq, err, len(want)+1)
	}
}

// TestSegmentRotation drives the log over its segment size so appends
// span several files, and checks replay order and stats.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 512})
	const n = 40
	for i := 0; i < n; i++ {
		appendSync(t, l, Insert, batch(i, 1))
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != n {
		t.Fatalf("replayed %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Batch != uint64(i+1) {
			t.Fatalf("record %d out of order: batch %d", i, r.Batch)
		}
	}
}

// TestCutRetire checks the checkpoint contract: batches appended before
// Cut live below the mark and vanish on Retire; batches appended after
// survive.
func TestCutRetire(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	appendSync(t, l, Insert, batch(0, 2))
	appendSync(t, l, Delete, batch(0, 1))
	mark, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, Insert, batch(10, 2))
	removed, err := l.Retire(mark)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("retired %d segments, want 1", removed)
	}
	recs := collect(t, l)
	if len(recs) != 1 || recs[0].Batch != 3 || recs[0].Kind != Insert {
		t.Fatalf("post-retire replay = %+v", recs)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments after retire = %d", st.Segments)
	}
	// A stale mark is harmless.
	if removed, err := l.Retire(mark); err != nil || removed != 0 {
		t.Fatalf("stale retire: %d, %v", removed, err)
	}
}

// TestTornTailTruncated simulates the classic crash: a record is half
// written when the process dies. Reopen must silently truncate it,
// keep every earlier record, and leave the log appendable.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []string{"midframe", "midheader"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			appendSync(t, l, Insert, batch(0, 2))
			appendSync(t, l, Delete, batch(0, 1))
			appendSync(t, l, Insert, batch(10, 1))
			l.Close()

			segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments: %v, %v", segs, err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			// Tear the final record: drop its last byte (midframe) or
			// leave only 3 bytes of its frame header (midheader). The
			// frame encoding is deterministic, so the third record's
			// start offset is len(file) - len(its frame).
			start3 := len(data) - len(encodeRecord(Insert, 3, batch(10, 1)))
			torn := len(data) - 1
			if cut == "midheader" {
				torn = start3 + 3
			}
			if err := os.WriteFile(segs[0], data[:torn], 0o644); err != nil {
				t.Fatal(err)
			}

			l = mustOpen(t, dir, Options{})
			defer l.Close()
			if st := l.Stats(); st.TruncatedBytes == 0 {
				t.Fatal("no torn bytes reported")
			}
			recs := collect(t, l)
			if len(recs) != 2 {
				t.Fatalf("%d records survived, want 2", len(recs))
			}
			// The log stays writable after truncation.
			appendSync(t, l, Insert, batch(20, 1))
			if got := len(collect(t, l)); got != 3 {
				t.Fatalf("after post-truncate append: %d records", got)
			}
		})
	}
}

// TestTornHeaderSegmentRemoved covers a crash during rotation: the new
// segment's header never fully lands. The file is discarded and the
// log reopens cleanly on the earlier segments.
func TestTornHeaderSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendSync(t, l, Insert, batch(0, 2))
	mark, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Shear the fresh post-cut segment down to half a header.
	path := filepath.Join(dir, fmt.Sprintf("%016x.wal", mark))
	if err := os.WriteFile(path, []byte("SPQLW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != 1 {
		t.Fatalf("%d records, want the pre-cut one", len(recs))
	}
	appendSync(t, l, Insert, batch(5, 1))
	if got := len(collect(t, l)); got != 2 {
		t.Fatalf("append after recovery: %d records", got)
	}
}

// TestEarlierCorruptionIsTypedError flips one byte in the middle of a
// sealed (non-final) segment. That can never be a torn write, so Open
// must refuse with a *CorruptError — and must not panic.
func TestEarlierCorruptionIsTypedError(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendSync(t, l, Insert, batch(0, 4))
	if _, err := l.Cut(); err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, Insert, batch(10, 1))
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameHeader+5] ^= 0x40 // bit-flip inside the first record's body
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError", err)
	}
}

// TestCorruptionInFinalSegmentBeforeTail flips a byte in the *first* of
// two records in the final segment. Intact data follows the damage, so
// this cannot be a torn append — truncating here would silently drop
// the acknowledged second record. Open must refuse with a
// *CorruptError; only damage that runs to end of file is a tear.
func TestCorruptionInFinalSegmentBeforeTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendSync(t, l, Insert, batch(0, 1))
	appendSync(t, l, Insert, batch(1, 1))
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameHeader+2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError (valid record follows the damage)", err)
	}

	// Flip the *last* record instead: the damage reaches end of file,
	// which is exactly the torn-append shape, so it truncates.
	data[headerSize+frameHeader+2] ^= 0x01 // restore record 1
	data[len(data)-2] ^= 0x01              // damage record 2's tail
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{})
	defer l.Close()
	if st := l.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("expected truncation report for damage at end of file")
	}
	if recs := collect(t, l); len(recs) != 1 {
		t.Fatalf("%d records survived, want the intact first one", len(recs))
	}
}

// TestGroupCommit hammers Append+Sync from many goroutines and checks (a) every batch ID is unique and every record
// survives, (b) the fsync count stays at or below the append count —
// the group-commit invariant that makes an fsync per ack affordable.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := l.Append(Insert, batch(w*1000+i, 2))
				if err == nil {
					err = l.Sync(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != writers*perWriter {
		t.Fatalf("appended %d, want %d", st.Appended, writers*perWriter)
	}
	if st.Syncs > st.Appended {
		t.Fatalf("more fsyncs (%d) than appends (%d)", st.Syncs, st.Appended)
	}
	l.Close()

	l = mustOpen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d, want %d", len(recs), writers*perWriter)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.Batch] {
			t.Fatalf("duplicate batch %d", r.Batch)
		}
		seen[r.Batch] = true
	}
}

// TestEmptyAndForeignFiles: an empty directory opens fresh, and files
// that are not WAL segments are ignored.
func TestEmptyAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	if recs := collect(t, l); len(recs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(recs))
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments = %d", st.Segments)
	}
}

// swapFile replaces the active segment's handle (as a fault injector:
// a closed handle fails every write and fsync) and returns the old one.
func swapFile(l *Log, f *os.File) *os.File {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.f
	l.f = f
	return old
}

func closedFile(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	return f
}

// TestFailedSyncPoisonsLog: a failed fsync must never be retried — on
// Linux the retry can succeed after the kernel dropped the dirty pages,
// acknowledging a batch that never reached the device. The leader and
// every queued follower of the failed group commit get the error, the
// log refuses Append, Sync and Cut from then on even though the file
// works again, and a reopen replays every batch acknowledged before
// the fault.
func TestFailedSyncPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		appendSync(t, l, Insert, batch(i, 1)) // acknowledged before the fault
	}
	var pending []uint64
	for i := 3; i < 9; i++ {
		seq, err := l.Append(Insert, batch(i, 1))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, seq)
	}
	syncs := l.Stats().Syncs

	good := swapFile(l, closedFile(t, l.segmentPath(1)))
	errs := make([]error, len(pending))
	var wg sync.WaitGroup
	for i, seq := range pending {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Sync(seq)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrFailed) {
			t.Errorf("Sync(%d) during the fault = %v, want ErrFailed", pending[i], err)
		}
	}

	// The device answers again; a retry would now "succeed".
	swapFile(l, good)
	if err := l.Sync(pending[0]); !errors.Is(err, ErrFailed) {
		t.Errorf("Sync after the fault cleared = %v: a retried fsync acknowledged a batch whose fsync had failed", err)
	}
	if _, err := l.Append(Insert, batch(99, 1)); !errors.Is(err, ErrFailed) {
		t.Errorf("Append on a poisoned log = %v, want ErrFailed", err)
	}
	if _, err := l.Cut(); !errors.Is(err, ErrFailed) {
		t.Errorf("Cut on a poisoned log = %v, want ErrFailed", err)
	}
	if got := l.Stats().Syncs; got != syncs {
		t.Errorf("Stats().Syncs advanced %d -> %d across failed fsyncs", syncs, got)
	}
	if err := l.Close(); err != nil {
		t.Errorf("Close of a poisoned log: %v", err)
	}

	// No crash followed, so the six batches whose ack was refused are
	// still in the file and replay too (refused is not absent); the
	// refused Append left nothing behind.
	l = mustOpen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != 9 {
		t.Fatalf("replayed %d batches after reopen, want the 9 appended before the fault", len(recs))
	}
	for i, r := range recs {
		if r.Batch != uint64(i+1) || r.Triples[0] != triple(i) {
			t.Errorf("record %d = batch %d %v", i, r.Batch, r.Triples)
		}
	}
}

// TestFailedAppendPoisonsLog: a failed segment write may have left a
// torn frame, and nothing may ever be appended behind one. The log is
// poisoned by the write error itself; reopen+replay returns exactly the
// batches acknowledged before the fault.
func TestFailedAppendPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendSync(t, l, Insert, batch(0, 2))
	appendSync(t, l, Delete, batch(2, 1))

	good := swapFile(l, closedFile(t, l.segmentPath(1)))
	if _, err := l.Append(Insert, batch(3, 1)); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append with a failing write = %v, want ErrFailed", err)
	}
	swapFile(l, good)
	if _, err := l.Append(Insert, batch(4, 1)); !errors.Is(err, ErrFailed) {
		t.Errorf("Append after the fault cleared = %v, want ErrFailed", err)
	}
	if err := l.Sync(2); !errors.Is(err, ErrFailed) {
		t.Errorf("Sync on a poisoned log = %v, want ErrFailed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("Close of a poisoned log: %v", err)
	}

	l = mustOpen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != 2 || recs[0].Kind != Insert || recs[1].Kind != Delete || recs[1].Batch != 2 {
		t.Fatalf("replay after reopen = %+v, want exactly the two acknowledged batches", recs)
	}
	appendSync(t, l, Insert, batch(5, 1)) // a reopened log takes writes again
}

// TestCheckedInSegmentReplays: testdata/v1 holds a segment an earlier
// build wrote (escaped, tagged, typed, blank and non-ASCII terms in
// insert and delete batches). It must replay, and encoding its records
// again must give back its bytes: the N-Triples writer and the framing
// have not moved.
func TestCheckedInSegmentReplays(t *testing.T) {
	const name = "0000000000000001.wal"
	want, err := os.ReadFile(filepath.Join("testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), want, 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	got := want[:headerSize:headerSize]
	for _, r := range recs {
		got = append(got, encodeRecord(r.Kind, r.Batch, r.Triples)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded segment differs:\n got %q\nwant %q", got, want)
	}
}
