package sparqluo_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sparqluo"
	"sparqluo/internal/bench"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
	"sparqluo/internal/wal"
)

// walOp is one step of the deterministic write stream the WAL tests
// drive through both a to-be-crashed database and a never-crashed
// reference, so the two can be compared byte for byte afterwards.
type walOp struct {
	del bool
	ts  []rdf.Triple
}

// walOpStream builds a deterministic interleaving of insert and delete
// batches over the dataset: bulk inserts, deletes of earlier inserts
// (some repeated — no-ops), and re-inserts of deleted triples, the op
// mix recovery has to replay faithfully.
func walOpStream(all []rdf.Triple) []walOp {
	rng := rand.New(rand.NewSource(11))
	var ops []walOp
	var seen []rdf.Triple
	next := 0
	for next < len(all) {
		n := min(50+rng.Intn(200), len(all)-next)
		batch := all[next : next+n]
		next += n
		ops = append(ops, walOp{ts: batch})
		seen = append(seen, batch...)
		if len(ops)%3 == 0 && len(seen) > 10 {
			var del []rdf.Triple
			for i := 0; i < 20; i++ {
				del = append(del, seen[rng.Intn(len(seen))])
			}
			ops = append(ops, walOp{del: true, ts: del})
			if rng.Intn(2) == 0 {
				// Re-insert one victim so tombstone/insert ordering in the
				// log matters.
				ops = append(ops, walOp{ts: del[:1]})
			}
		}
	}
	return ops
}

func applyWalOps(t *testing.T, db *sparqluo.DB, ops []walOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.del {
			err = db.Delete(op.ts...)
		} else {
			err = db.Insert(op.ts...)
		}
		if err != nil {
			t.Fatalf("apply op stream: %v", err)
		}
	}
}

// dedupeTriples drops exact repeats (LUBM generation emits a few) so
// tests can assert NumTriples against the input length.
func dedupeTriples(ts []rdf.Triple) []rdf.Triple {
	seen := make(map[string]bool, len(ts))
	out := ts[:0:0]
	for _, t := range ts {
		k := t.S.String() + "\x00" + t.P.String() + "\x00" + t.O.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// walSegments lists the segment files currently in a WAL directory.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

// TestWALRecoveryAckedWritesSurvive is the core durability acceptance:
// every acknowledged batch must survive a simulated
// kill -9 (the database is abandoned without Close — appends go to the
// segment file with a single write syscall, so this is exactly what the
// OS keeps). Recovery must reproduce results byte-identically to a
// never-crashed run of the same op stream, across both engines and all
// four strategies, and every recovered answer must agree with the oracle
// over the acknowledged triple set — the op stream's batches applied in
// order — so the check does not rest on this engine answering both sides.
func TestWALRecoveryAckedWritesSurvive(t *testing.T) {
	all := lubm.Generate(lubm.DefaultConfig(1))
	ops := walOpStream(all)
	walDir := filepath.Join(t.TempDir(), "wal")

	crashed, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	applyWalOps(t, crashed, ops)
	// Simulated kill -9: no Close, no Flush — the process just stops.
	crashed = nil

	recovered, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	rec, ok := recovered.Recovery()
	if !ok {
		t.Fatal("Recovery() reports no WAL attached")
	}
	if rec.Batches != len(ops) {
		t.Fatalf("recovery replayed %d batches, want %d (every acked batch)", rec.Batches, len(ops))
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("recovery truncated %d bytes from a cleanly-appended log", rec.TruncatedBytes)
	}

	ref, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	applyWalOps(t, ref, ops)

	if got, want := recovered.NumTriples(), ref.NumTriples(); got != want {
		t.Fatalf("recovered NumTriples = %d, want %d", got, want)
	}

	acked, present := []rdf.Triple(nil), map[rdf.Triple]bool{}
	for _, op := range ops {
		for _, tr := range op.ts {
			if !op.del && !present[tr] {
				acked = append(acked, tr)
			}
			present[tr] = !op.del
		}
	}
	acked = slices.DeleteFunc(acked, func(tr rdf.Triple) bool { return !present[tr] })
	// The LUBM queries have no ORDER BY, so the oracle's term order is
	// never consulted.
	orc := newOracle(acked, func(a, b rdf.Term) int { return strings.Compare(a.String(), b.String()) })

	engines := []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin}
	engineNames := []string{"wco", "binary"}
	strategies := []sparqluo.Strategy{sparqluo.Base, sparqluo.TT, sparqluo.CP, sparqluo.Full}
	for _, q := range bench.AllQueries() {
		if q.Dataset != "LUBM" {
			continue
		}
		parsed := sparql.MustParse(q.Text)
		oracleAnswer := orc.answer(parsed)
		for ei, engine := range engines {
			for _, strat := range strategies {
				opts := []sparqluo.Option{sparqluo.WithEngine(engine), sparqluo.WithStrategy(strat)}
				want := queryJSON(t, ref, q.Text, opts)
				got := queryJSON(t, recovered, q.Text, opts)
				if !bytes.Equal(want, got) {
					t.Errorf("%s %s/%v: recovered results differ from never-crashed run\nwant: %.200s\ngot:  %.200s",
						q.ID, engineNames[ei], strat, want, got)
				}
				sols, err := decodeResults(got)
				if err == nil {
					err = agree(sols, oracleAnswer, parsed, -1, 0)
				}
				if err != nil {
					t.Errorf("%s %s/%v: recovered results disagree with the oracle over the acked triples: %v",
						q.ID, engineNames[ei], strat, err)
				}
			}
		}
	}

	// Writes keep journaling after recovery, with batch IDs resuming
	// past the replayed history: one more insert, one more crash, and
	// the second recovery must see exactly one extra batch.
	extra := rdf.Triple{
		S: rdf.NewIRI("http://ex/after-crash"),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewLiteral("survived"),
	}
	if err := recovered.Insert(extra); err != nil {
		t.Fatal(err)
	}
	recovered = nil // crash again

	again, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	rec2, _ := again.Recovery()
	if rec2.Batches != len(ops)+1 {
		t.Fatalf("second recovery replayed %d batches, want %d", rec2.Batches, len(ops)+1)
	}
	res := queryJSON(t, again, `SELECT ?o WHERE { <http://ex/after-crash> <http://ex/p> ?o }`, nil)
	if !bytes.Contains(res, []byte("survived")) {
		t.Fatalf("post-recovery insert lost: %s", res)
	}
}

// TestWALCheckpointRetiresSegments covers the log/snapshot recovery
// pair: a compaction that durably persists its image retires every
// journal segment the image makes redundant, and a restart boots from
// the image plus only the tail of the log.
func TestWALCheckpointRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	img := filepath.Join(dir, "live.img")

	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{
		SnapshotPath:    img,
		WALDir:          walDir,
		WALSegmentBytes: 4096, // force frequent rotation so retirement has segments to eat
	})
	if err != nil {
		t.Fatal(err)
	}
	all := dedupeTriples(lubm.Generate(lubm.DefaultConfig(1)))
	pre := all[:4000]
	for i := 0; i < len(pre); i += 200 {
		if err := db.Insert(pre[i:min(i+200, len(pre))]...); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(walSegments(t, walDir)); n < 3 {
		t.Fatalf("only %d segments before compaction; SegmentBytes=4096 should have rotated more", n)
	}

	cs, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Persisted {
		t.Fatal("compaction with SnapshotPath did not persist")
	}
	if cs.WALRetired == 0 {
		t.Fatal("persisted compaction retired no WAL segments")
	}
	ls, _ := db.LiveStats()
	if ls.WAL == nil {
		t.Fatal("LiveStats.WAL is nil with a journal attached")
	}
	if ls.WAL.Segments != 1 {
		t.Fatalf("after retirement %d segments remain, want 1 (the active one)", ls.WAL.Segments)
	}
	if ls.SinceLastCompaction <= 0 {
		t.Fatalf("SinceLastCompaction = %v after a compaction", ls.SinceLastCompaction)
	}

	// Post-compaction writes land in the surviving tail.
	post := all[4000:4600]
	for i := 0; i < len(post); i += 200 {
		if err := db.Insert(post[i : i+200]...); err != nil {
			t.Fatal(err)
		}
	}
	db = nil // kill -9

	// Restart the way the server does: boot from the compaction image,
	// then replay the log tail over it.
	re, _, err := sparqluo.OpenFile(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.EnableLiveUpdates(sparqluo.LiveOptions{SnapshotPath: img, WALDir: walDir}); err != nil {
		t.Fatal(err)
	}
	rec, _ := re.Recovery()
	if rec.Batches != 3 {
		t.Fatalf("tail replay recovered %d batches, want 3 (only post-compaction ones)", rec.Batches)
	}
	if got, want := re.NumTriples(), len(pre)+len(post); got != want {
		t.Fatalf("recovered NumTriples = %d, want %d", got, want)
	}
}

// TestWALUnpersistedCompactionKeepsJournal: without a SnapshotPath a
// compaction persists nothing, so nothing could ever retire a segment it
// cut. It must leave the journal alone — one segment after five
// flushes — and every batch must still replay after a crash.
func TestWALUnpersistedCompactionKeepsJournal(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	all := dedupeTriples(lubm.Generate(lubm.DefaultConfig(1)))
	const batches = 5
	for i := 0; i < batches; i++ {
		if err := db.Insert(all[i*10 : (i+1)*10]...); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ls, _ := db.LiveStats()
	if ls.WAL.Segments != 1 {
		t.Fatalf("%d segments after %d unpersisted compactions, want 1", ls.WAL.Segments, batches)
	}
	db = nil // kill -9

	re, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec, _ := re.Recovery(); rec.Batches != batches {
		t.Fatalf("replayed %d batches, want %d", rec.Batches, batches)
	}
	if got, want := re.NumTriples(), batches*10; got != want {
		t.Fatalf("recovered NumTriples = %d, want %d", got, want)
	}
}

// TestWALNoOpCompactionRetiresJournal: a compaction whose fold leaves
// the base unchanged — re-inserts of triples the base holds, or an
// insert and a delete that cancel — still retires the journal below its
// cut, so a stream of idempotent writes keeps the segment count bounded;
// and a crash-reopen still matches a never-crashed run.
func TestWALNoOpCompactionRetiresJournal(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	img := filepath.Join(dir, "live.img")
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{SnapshotPath: img, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := dedupeTriples(lubm.Generate(lubm.DefaultConfig(1)))
	base, fresh, tail := all[:500], all[500], all[501]
	for _, d := range []*sparqluo.DB{db, ref} {
		if err := d.Insert(base...); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for round := range 5 {
		if err := db.Insert(base[round]); err != nil {
			t.Fatal(err)
		}
		if round == 4 {
			if err := db.Insert(fresh); err != nil {
				t.Fatal(err)
			}
			if err := db.Delete(fresh); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if ls, _ := db.LiveStats(); ls.WAL.Segments != 1 {
			t.Fatalf("round %d: %d journal segments after a compaction that changed nothing, want 1", round, ls.WAL.Segments)
		}
	}
	for _, d := range []*sparqluo.DB{db, ref} {
		if err := d.Insert(tail); err != nil {
			t.Fatal(err)
		}
	}
	db = nil // kill -9

	re, _, err := sparqluo.OpenFile(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.EnableLiveUpdates(sparqluo.LiveOptions{SnapshotPath: img, WALDir: walDir}); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.NumTriples(), ref.NumTriples(); got != want {
		t.Fatalf("recovered NumTriples = %d, want %d", got, want)
	}
	for _, q := range bench.AllQueries() {
		if q.Dataset != "LUBM" {
			continue
		}
		if want, got := queryJSON(t, ref, q.Text, nil), queryJSON(t, re, q.Text, nil); !bytes.Equal(want, got) {
			t.Errorf("%s: recovered results differ from never-crashed run\nwant: %.200s\ngot:  %.200s", q.ID, want, got)
		}
	}
}

// TestWALCrashBetweenFoldAndRetire pins the idempotence half of the
// recovery contract: if the process dies after the folded base is
// durably persisted but before the journal segments are retired,
// recovery replays batches the image already contains. RDF set
// semantics must absorb them — no duplicate triples, tombstones still
// annihilate — and results must match a never-crashed run exactly.
func TestWALCrashBetweenFoldAndRetire(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	img := filepath.Join(dir, "fold.img")

	all := lubm.Generate(lubm.DefaultConfig(1))
	a, b := all[:3000], all[3000:3500]
	victims := a[100:160]

	// No SnapshotPath: WriteSnapshot folds and persists the image, but
	// nothing retires the journal — exactly the state a crash between a
	// compaction's persist step and its retire step leaves behind.
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(a...); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(victims...); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(b...); err != nil {
		t.Fatal(err)
	}
	db = nil // kill -9: image persisted, full journal still on disk

	re, _, err := sparqluo.OpenFile(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.EnableLiveUpdates(sparqluo.LiveOptions{WALDir: walDir}); err != nil {
		t.Fatal(err)
	}
	rec, _ := re.Recovery()
	if rec.Batches != 3 {
		t.Fatalf("replay saw %d batches, want all 3 (insert, delete, insert)", rec.Batches)
	}

	ref, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Insert(a...); err != nil {
		t.Fatal(err)
	}
	if err := ref.Delete(victims...); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Insert(b...); err != nil {
		t.Fatal(err)
	}

	if got, want := re.NumTriples(), ref.NumTriples(); got != want {
		t.Fatalf("recovered NumTriples = %d, want %d (duplicates or lost tombstones)", got, want)
	}
	// A replayed tombstone must still annihilate: the victims stay gone.
	v := victims[0]
	q := "SELECT ?o WHERE { " + v.S.String() + " " + v.P.String() + " ?o }"
	res := queryJSON(t, re, q, nil)
	if bytes.Contains(res, []byte(v.O.Value)) {
		t.Fatalf("deleted triple resurrected by idempotent replay: %s", res)
	}
	for _, q := range bench.AllQueries() {
		if q.Dataset != "LUBM" {
			continue
		}
		want := queryJSON(t, ref, q.Text, nil)
		got := queryJSON(t, re, q.Text, nil)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: recovered results differ after fold+replay\nwant: %.200s\ngot:  %.200s", q.ID, want, got)
		}
	}
}

// TestWALTornTailRecovered simulates dying mid-append of an unacked
// batch: garbage bytes at the end of the newest segment. Recovery must
// truncate them, report how many, and keep every acked batch.
func TestWALTornTailRecovered(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	all := dedupeTriples(lubm.Generate(lubm.DefaultConfig(1)))[:600]
	for i := 0; i < len(all); i += 200 {
		if err := db.Insert(all[i : i+200]...); err != nil {
			t.Fatal(err)
		}
	}
	db = nil // crash

	segs := walSegments(t, walDir)
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := bytes.Repeat([]byte{0xAB}, 13) // a partial frame header + change
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatalf("recovery refused a torn tail: %v", err)
	}
	rec, _ := re.Recovery()
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
	}
	if rec.Batches != 3 || re.NumTriples() != len(all) {
		t.Fatalf("acked data lost under torn tail: %d batches, %d triples", rec.Batches, re.NumTriples())
	}
}

// TestWALCorruptionRefusesToOpen: damage that is not a torn tail —
// a flipped byte in the middle of acked history — must be a typed
// *wal.CorruptError, not a silent truncation.
func TestWALCorruptionRefusesToOpen(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	all := lubm.Generate(lubm.DefaultConfig(1))[:400]
	for i := 0; i < len(all); i += 100 {
		if err := db.Insert(all[i : i+100]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	seg := walSegments(t, walDir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01 // mid-stream, not the tail
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err == nil {
		t.Fatal("OpenLive accepted a log with mid-stream corruption")
	}
	var ce *wal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T (%v), want *wal.CorruptError", err, err)
	}
}

// TestHTTPStatsReportWAL checks the operational surface: /stats and
// /healthz expose the journal's segment count, size, sync age and the
// time since the last successful compaction.
func TestHTTPStatsReportWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{
		SnapshotPath: filepath.Join(dir, "img"),
		WALDir:       filepath.Join(dir, "wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert(rdf.Triple{
		S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/o"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	stats := get("/stats")
	for _, want := range []string{"wal-segments: 1", "wal-bytes: ", "wal-syncs: ", "wal-last-sync-age: ", "since-last-compaction: "} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats missing %q:\n%s", want, stats)
		}
	}
	healthz := get("/healthz")
	for _, want := range []string{"wal-segments: 1", "wal-last-sync-age: ", "since-last-compaction: "} {
		if !strings.Contains(healthz, want) {
			t.Errorf("/healthz missing %q:\n%s", want, healthz)
		}
	}
}

// TestHTTPUpdateFailedJournal: /update separates the client's fault from
// the server's. A body that does not parse is 400; a batch the journal
// cannot take is 500 — and because a failed segment write or fsync
// poisons the log (wal.ErrFailed), every later update is 500 too, while
// /sparql keeps answering from what was applied. The fault is a WAL
// directory that stops being one, so the rotation the tiny segment size
// forces on the second batch cannot open its next segment.
func TestHTTPUpdateFailedJournal(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	// The SnapshotPath makes /compact cut the journal, which is what a
	// poisoned log refuses.
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{
		SnapshotPath:    filepath.Join(dir, "live.img"),
		WALDir:          walDir,
		WALSegmentBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	query := "/sparql?query=" + url.QueryEscape("SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }")

	if code, body := do("POST", "/update", "<http://ex/s> <http://ex/p> \"one\" .\n"); code != 200 {
		t.Fatalf("healthy update = %d %s", code, body)
	}
	if code, body := do("POST", "/update", "<http://ex/s> <http://ex/p> unterminated"); code != 400 {
		t.Errorf("malformed body = %d %s, want 400", code, body)
	}

	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, body := do("POST", "/update", "<http://ex/s> <http://ex/p> \"two\" .\n")
		if code != 500 || !strings.Contains(body, wal.ErrFailed.Error()) {
			t.Errorf("update %d on a failed journal = %d %q, want 500 naming %q", i, code, body, wal.ErrFailed)
		}
	}
	if code, body := do("POST", "/compact", ""); code != 500 {
		t.Errorf("compact on a failed journal = %d %s, want 500", code, body)
	}
	code, body := do("GET", query, "")
	if code != 200 || !strings.Contains(body, `"one"`) || strings.Contains(body, `"two"`) {
		t.Errorf("query on a failed journal = %d %s, want 200 with the acknowledged triple only", code, body)
	}
}

// TestWriteRefusesUnspellableTriples: a triple whose N-Triples spelling
// does not read back as itself is refused at every write entry before
// anything is journaled, so an acknowledged journal always replays.
func TestWriteRefusesUnspellableTriples(t *testing.T) {
	s, p := rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p")
	bad := []rdf.Triple{
		{S: rdf.NewIRI("http://ex/a>b"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("x")},
		{S: rdf.NewIRI("http://ex/a\nb"), P: p, O: rdf.NewLiteral("x")},
		{S: rdf.NewBlank("a b"), P: p, O: rdf.NewLiteral("x")},
		{S: s, P: p, O: rdf.NewLangLiteral("x", "en us")},
		{S: rdf.NewLiteral("x"), P: p, O: rdf.NewLiteral("x")},
	}
	good := rdf.Triple{S: s, P: p, O: rdf.NewLiteral("kept")}
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(good); err != nil {
		t.Fatal(err)
	}
	for _, tr := range bad {
		for name, write := range map[string]func(...rdf.Triple) error{
			"Insert": db.Insert,
			"Delete": db.Delete,
			"AddAll": func(ts ...rdf.Triple) error { return db.AddAll(ts) },
		} {
			if err := write(good, tr); err == nil {
				t.Errorf("%s accepted %q", name, tr.String())
			}
		}
		if err := sparqluo.Open().Add(tr); err == nil {
			t.Errorf("Add while loading accepted %q", tr.String())
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if rec, _ := re.Recovery(); rec.Batches != 1 || re.NumTriples() != 1 {
		t.Fatalf("replayed %d batches, %d triples; want the one good batch", rec.Batches, re.NumTriples())
	}
}

// TestWALKeepsInvalidUTF8: a literal holding invalid UTF-8 next to a
// byte the writer escapes comes back from the journal byte for byte.
func TestWALKeepsInvalidUTF8(t *testing.T) {
	tr := rdf.Triple{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("a\xff\"b")}
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(tr); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := sparqluo.OpenLive(sparqluo.LiveOptions{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query(`SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if sols := res.Solutions(); len(sols) != 1 || sols[0]["o"] != tr.O {
		t.Fatalf("recovered %v, want %q", sols, tr.O.Value)
	}
}
