package sparqluo_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sparqluo"
	"sparqluo/internal/bench"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// liveReference rebuilds, from first principles, the frozen store a
// quiesced live database must be indistinguishable from: the dictionary
// is replayed in the exact order the live store grew it (base triples
// first, then every inserted triple in insertion order — Delete never
// allocates IDs), and the surviving triple set is folded through the
// same sort+compact build the compactor uses. Identical dictionary IDs
// make the comparison maximally strict: W3C JSON output must match
// byte for byte, not just up to result reordering.
func liveReference(base, inserted, final []rdf.Triple) *sparqluo.DB {
	d := store.NewDict()
	enc := func(t rdf.Triple) store.EncTriple {
		return store.EncTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
	}
	for _, t := range base {
		enc(t)
	}
	for _, t := range inserted {
		enc(t)
	}
	encFinal := make([]store.EncTriple, len(final))
	for i, t := range final {
		encFinal[i] = enc(t)
	}
	ref, err := store.FromTriples(d, encFinal, true)
	if err != nil {
		panic(err)
	}
	return sparqluo.FromStore(ref)
}

// TestLiveQueriesSeeOneEpoch drives queries concurrently with paired
// writes and background compactions. Each write batch inserts (or
// deletes) both halves of a subject's pair atomically, so a query that
// honors snapshot isolation can never observe a subject with its
// required triple but not its optional one — regardless of whether the
// view it pinned was pre-memtable, mid-memtable, or mid-swap.
func TestLiveQueriesSeeOneEpoch(t *testing.T) {
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pair := func(i int) []sparqluo.Triple {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		return []sparqluo.Triple{
			{S: s, P: rdf.NewIRI("http://ex/req"), O: rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i))},
			{S: s, P: rdf.NewIRI("http://ex/opt"), O: rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i))},
		}
	}
	for i := 0; i < 64; i++ {
		if err := db.Insert(pair(i)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT ?s ?b WHERE { ?s <http://ex/req> ?x . OPTIONAL { ?s <http://ex/opt> ?b } }`
	writerDone := make(chan struct{})
	compactorDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: a bounded stream of atomic paired inserts and deletes
		defer wg.Done()
		defer close(writerDone)
		rng := rand.New(rand.NewSource(11))
		for i := 64; i < 1500; i++ {
			if err := db.Insert(pair(i)...); err != nil {
				t.Error(err)
				return
			}
			if victim := rng.Intn(i); victim%3 == 0 {
				if err := db.Delete(pair(victim)...); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // compactor: keep base swaps happening under the readers
		defer wg.Done()
		for {
			select {
			case <-compactorDone:
				return
			default:
			}
			if err := db.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	engines := []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin}
	strategies := []sparqluo.Strategy{sparqluo.Base, sparqluo.Full}
	writing := true
	for rep := 0; rep < 10 || writing; rep++ {
		select {
		case <-writerDone:
			writing = false
		default:
		}
		for _, engine := range engines {
			for _, strat := range strategies {
				res, err := db.Query(q, sparqluo.WithEngine(engine), sparqluo.WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				for _, sol := range res.Solutions() {
					if _, ok := sol["b"]; !ok {
						t.Fatalf("rep %d: subject %v visible without its paired triple — query saw a torn batch",
							rep, sol["s"])
					}
				}
			}
		}
	}
	close(compactorDone)
	wg.Wait()
}

// TestPreparedAcrossLiveWrites: a *Prepared held across live writes and
// a compaction reads the epoch current when each execution starts, not
// the one it was prepared or warmed at. After every insert batch, delete
// batch and the compaction, p.Exec must answer like a fresh db.Query at
// that epoch on both engines — byte-identical under Base; as a multiset
// under TT, CP and Full, whose estimates come from the template by design
// and may order rows differently — with the batch just inserted visible
// and the batch just deleted gone.
func TestPreparedAcrossLiveWrites(t *testing.T) {
	const ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	all := lubm.Generate(lubm.DefaultConfig(1))
	db := sparqluo.Open()
	if err := db.AddAll(all); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableLiveUpdates(sparqluo.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	q := `PREFIX ub: <` + ub + `>
		SELECT ?x ?y ?n WHERE { { ?x ub:advisor ?y } UNION { ?x ub:headOf ?y } OPTIONAL { ?y ub:name ?n } }`
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Explain(); err != nil { // warms the plan at the first epoch
		t.Fatal(err)
	}

	advisor := rdf.NewIRI(ub + "advisor")
	var advised []rdf.Triple
	for _, tr := range all {
		if tr.P == advisor {
			advised = append(advised, tr)
		}
	}
	// pairs renders each solution's (?x, ?y) — the part a write decides.
	pairs := func(res *sparqluo.Results) map[string]bool {
		out := map[string]bool{}
		for _, sol := range res.Solutions() {
			out[sol["x"].String()+" "+sol["y"].String()] = true
		}
		return out
	}
	check := func(step string, added, removed []rdf.Triple) {
		t.Helper()
		for _, eng := range []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin} {
			for _, strat := range []sparqluo.Strategy{sparqluo.Base, sparqluo.TT, sparqluo.CP, sparqluo.Full} {
				opts := []sparqluo.Option{sparqluo.WithEngine(eng), sparqluo.WithStrategy(strat)}
				want := queryJSON(t, db, q, opts)
				res, err := p.Exec(opts...)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				got := buf.Bytes()
				if strat == sparqluo.Base && !bytes.Equal(got, want) {
					t.Fatalf("%s engine=%d %v: prepared differs from a fresh query\nfresh:    %.200s\nprepared: %.200s",
						step, eng, strat, want, got)
				}
				g, gerr := decodeResults(got)
				w, werr := decodeResults(want)
				if err := cmp.Or(gerr, werr, agree(g, w, sparql.MustParse(q), -1, 0)); err != nil {
					t.Fatalf("%s engine=%d %v: prepared answer differs from a fresh query's: %v", step, eng, strat, err)
				}
			}
		}
		res, err := p.Exec()
		if err != nil {
			t.Fatal(err)
		}
		seen := pairs(res)
		for _, tr := range added {
			if !seen[tr.S.String()+" "+tr.O.String()] {
				t.Fatalf("%s: inserted %v not visible to the held Prepared", step, tr)
			}
		}
		for _, tr := range removed {
			if seen[tr.S.String()+" "+tr.O.String()] {
				t.Fatalf("%s: deleted %v still visible to the held Prepared", step, tr)
			}
		}
	}

	check("prepared", nil, nil)
	for round := 0; round < 3; round++ {
		var ins []rdf.Triple
		for i := 0; i < 20; i++ {
			ins = append(ins, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://ex/student%d_%d", round, i)),
				P: advisor,
				O: advised[(round*20+i)%len(advised)].O,
			})
		}
		if err := db.Insert(ins...); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d insert", round), ins, nil)
		del := advised[round*10 : round*10+10]
		if err := db.Delete(del...); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d delete", round), nil, del)
		if round == 1 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			check("compacted", nil, del)
		}
	}
}

// TestLiveSnapshotRoundTrip covers the persistence surface end to end:
// a compaction-persisted image must reopen (via both OpenSnapshot and
// the magic-sniffing OpenFile) byte-identical to the quiesced live
// store, and a Flush whose persist step cannot succeed must fail
// loudly while the memtable retains every pending write.
func TestLiveSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "live.img")
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{SnapshotPath: img})
	if err != nil {
		t.Fatal(err)
	}
	all := lubm.Generate(lubm.DefaultConfig(1))
	for i := 0; i < len(all); i += 500 {
		if err := db.Insert(all[i:min(i+500, len(all))]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(all[:100]...); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	snap, err := sparqluo.OpenSnapshot(img)
	if err != nil {
		t.Fatalf("OpenSnapshot(%s): %v", img, err)
	}
	defer snap.Close()
	sniffed, source, err := sparqluo.OpenFile(img)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", img, err)
	}
	defer sniffed.Close()
	if source != "snapshot" {
		t.Errorf("OpenFile source = %q, want snapshot", source)
	}
	if snap.NumTriples() != db.NumTriples() || sniffed.NumTriples() != db.NumTriples() {
		t.Fatalf("NumTriples: snapshot=%d sniffed=%d live=%d", snap.NumTriples(), sniffed.NumTriples(), db.NumTriples())
	}
	for _, q := range bench.AllQueries() {
		if q.Dataset != "LUBM" {
			continue
		}
		want := queryJSON(t, db, q.Text, nil)
		if got := queryJSON(t, snap, q.Text, nil); !bytes.Equal(want, got) {
			t.Errorf("%s: reopened image differs from live store", q.ID)
		}
		if got := queryJSON(t, sniffed, q.Text, nil); !bytes.Equal(want, got) {
			t.Errorf("%s: OpenFile image differs from live store", q.ID)
		}
	}

	// Failure path: the snapshot target's parent is a regular file, so
	// the atomic writer cannot even create its temp file. The flush must
	// surface the error and keep serving the pending writes.
	if err := os.WriteFile(filepath.Join(dir, "notadir"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	broken, err := sparqluo.OpenLive(sparqluo.LiveOptions{
		SnapshotPath: filepath.Join(dir, "notadir", "img"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := broken.Insert(all[:10]...); err != nil {
		t.Fatal(err)
	}
	if err := broken.Flush(); err == nil {
		t.Fatal("Flush with unwritable snapshot path succeeded, want error")
	}
	if broken.NumTriples() != 10 {
		t.Errorf("after failed flush, live store serves %d triples, want 10", broken.NumTriples())
	}
	if stats, ok := broken.LiveStats(); !ok || stats.MemtableOps == 0 {
		t.Errorf("after failed flush, memtable dropped its writes: %+v", stats)
	}
}

// TestLiveWriteSnapshotQuiesces checks DB.WriteSnapshot on a live
// database: it must flush the memtable first so the image carries every
// acknowledged write.
func TestLiveWriteSnapshotQuiesces(t *testing.T) {
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(
		sparqluo.Triple{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/o")},
		sparqluo.Triple{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/o")},
	); err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(t.TempDir(), "live.img")
	if err := db.WriteSnapshot(img); err != nil {
		t.Fatal(err)
	}
	snap, err := sparqluo.OpenSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.NumTriples() != 2 {
		t.Errorf("image holds %d triples, want 2 (memtable not flushed before persist)", snap.NumTriples())
	}
	if stats, _ := db.LiveStats(); stats.MemtableOps != 0 {
		t.Errorf("WriteSnapshot left %d ops in the memtable", stats.MemtableOps)
	}
}

// TestLiveAPIGuards pins the error contract of the live surface: write
// APIs without live updates report ErrFrozen or ErrNotLive (never a
// panic), enabling twice fails, and sharded databases refuse the
// overlay.
func TestLiveAPIGuards(t *testing.T) {
	frozen := sparqluo.Open()
	frozen.Freeze()
	tr := sparqluo.Triple{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/o")}
	if err := frozen.Insert(tr); err != sparqluo.ErrNotLive {
		t.Errorf("Insert on frozen db: err = %v, want ErrNotLive", err)
	}
	if err := frozen.Delete(tr); err != sparqluo.ErrNotLive {
		t.Errorf("Delete on frozen db: err = %v, want ErrNotLive", err)
	}
	if err := frozen.Flush(); err != sparqluo.ErrNotLive {
		t.Errorf("Flush on frozen db: err = %v, want ErrNotLive", err)
	}
	if _, err := frozen.StartCompaction(sparqluo.CompactionOptions{}); err != sparqluo.ErrNotLive {
		t.Errorf("StartCompaction on frozen db: err = %v, want ErrNotLive", err)
	}
	if _, ok := frozen.LiveStats(); ok {
		t.Error("LiveStats on frozen db reported live")
	}

	if err := frozen.EnableLiveUpdates(sparqluo.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := frozen.EnableLiveUpdates(sparqluo.LiveOptions{}); err == nil {
		t.Error("EnableLiveUpdates twice succeeded, want error")
	}
	if err := frozen.Add(tr); err != nil {
		t.Errorf("Add on live db should route to the overlay, got %v", err)
	}
	if frozen.NumTriples() != 1 {
		t.Errorf("Add on live db did not land: %d triples", frozen.NumTriples())
	}
}
