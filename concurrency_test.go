package sparqluo_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqluo"
	"sparqluo/internal/lubm"
)

// TestConcurrentQueries backs the documented guarantee that a frozen DB
// is safe for concurrent readers: many goroutines run all strategies and
// engines against one store simultaneously (run with -race to verify).
func TestConcurrentQueries(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(2)))
	db.Freeze()

	const q = `
		PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT * WHERE {
			?x ub:worksFor ?d .
			{ ?x ub:headOf ?d } UNION { ?p ub:publicationAuthor ?x }
			OPTIONAL { ?x ub:emailAddress ?e }
		}`

	// Establish the expected result count once.
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Len()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			strat := []sparqluo.Strategy{sparqluo.Base, sparqluo.TT, sparqluo.CP, sparqluo.Full}[i%4]
			eng := []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin}[i%2]
			for rep := 0; rep < 4; rep++ {
				res, err := db.Query(q, sparqluo.WithStrategy(strat), sparqluo.WithEngine(eng))
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != want {
					errs <- errMismatch{got: res.Len(), want: want}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errMismatch struct{ got, want int }

func (e errMismatch) Error() string {
	return "concurrent query result mismatch"
}

// lubmTestDB builds a shared frozen LUBM database for the parallel tests.
func lubmTestDB(t testing.TB, universities int) *sparqluo.DB {
	t.Helper()
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(universities)))
	db.Freeze()
	return db
}

// parallelTestQuery mixes UNION branches, nested groups and stacked
// OPTIONALs so that both fan-out sites of the evaluator are exercised.
const parallelTestQuery = `
	PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
	SELECT * WHERE {
		?x ub:worksFor ?d .
		{ ?x ub:headOf ?d } UNION { ?p ub:publicationAuthor ?x } UNION { ?x ub:teacherOf ?c }
		OPTIONAL { ?x ub:emailAddress ?e }
		OPTIONAL { ?x ub:telephone ?tel OPTIONAL { ?x ub:researchInterest ?ri } }
	}`

// TestQueryContextCancellation checks both cancellation paths: a context
// that is already expired fails before evaluation starts, and a deadline
// expiring mid-join aborts the engines promptly instead of letting a
// cross-product run to completion. The sharded subtests run the same
// checks over a 4-shard copy of the store, whose scans are the same
// scanPattern poll reading a different Reader.
func TestQueryContextCancellation(t *testing.T) {
	single := lubmTestDB(t, 1)
	manifest := filepath.Join(t.TempDir(), "lubm.shards")
	if _, err := single.WriteShards(manifest, 4); err != nil {
		t.Fatal(err)
	}
	sharded, err := sparqluo.OpenShards(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	// This cross product is far too large to ever materialize; only
	// cancellation can bring the call back.
	const heavy = `SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }`

	for _, in := range []struct {
		prefix string
		db     *sparqluo.DB
	}{{"", single}, {"sharded/", sharded}} {
		db := in.db
		t.Run(in.prefix+"pre-expired", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := db.QueryContext(ctx, parallelTestQuery)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})

		for _, eng := range []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin} {
			eng := eng
			t.Run(fmt.Sprintf("%smid-join/engine=%d", in.prefix, eng), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer cancel()
				start := time.Now()
				_, err := db.QueryContext(ctx, heavy, sparqluo.WithEngine(eng))
				elapsed := time.Since(start)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
				// Generous bound: the engines poll every few thousand rows, so
				// even loaded CI machines return within a couple of seconds.
				if elapsed > 5*time.Second {
					t.Errorf("cancellation took %v, want prompt return", elapsed)
				}
			})
		}
	}
}

// nestedUnionQuery builds a query whose BE-tree fans out at every level:
// depth levels of two-branch UNIONs with an OPTIONAL riding on each
// group, yielding 2^depth leaves competing for pool tokens.
func nestedUnionQuery(depth int) string {
	var build func(d int) string
	build = func(d int) string {
		if d == 0 {
			return `{ ?x ub:worksFor ?d }`
		}
		inner := build(d - 1)
		return fmt.Sprintf(`{ %s UNION %s OPTIONAL { ?x ub:emailAddress ?e } }`, inner, inner)
	}
	return `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT * WHERE ` + build(depth)
}

// TestWorkerPoolSaturation floods a deliberately tiny worker pool with a
// BE-tree whose fan-out greatly exceeds it, from many goroutines at
// once. The pool's non-blocking token acquisition must keep every query
// making progress: a deadlock here trips the watchdog. Run with -race.
func TestWorkerPoolSaturation(t *testing.T) {
	db := lubmTestDB(t, 1)
	query := nestedUnionQuery(4) // 16 leaf groups + optional at every level

	ref, err := db.Query(query, sparqluo.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Len()

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, err := db.Query(query, sparqluo.WithParallelism(2))
			if err == nil && res.Len() != want {
				err = errMismatch{got: res.Len(), want: want}
			}
			done <- err
		}()
	}
	watchdog := time.After(120 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog:
			t.Fatal("worker pool deadlocked: queries did not complete")
		}
	}
}

// TestLiveConcurrentMutation races writers (atomic insert and delete
// batches), readers (both engines, mixed strategies), and the
// background compactor against one live database; run with -race to
// verify the overlay's synchronization. Each writer owns a disjoint
// partition of the op stream and every op reuses terms already in the
// base dictionary, so the final state is deterministic regardless of
// interleaving — after quiescing, the live store must answer
// byte-identically to a frozen store built directly from the surviving
// triples.
func TestLiveConcurrentMutation(t *testing.T) {
	base := lubm.Generate(lubm.DefaultConfig(2))
	db := sparqluo.Open()
	if err := db.AddAll(base); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableLiveUpdates(sparqluo.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	stop, err := db.StartCompaction(sparqluo.CompactionOptions{
		Interval:  5 * time.Millisecond,
		Threshold: 200,
		OnError:   func(err error) { t.Error(err) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Partition the op stream up front: writer g deletes every 7th base
	// triple with (i/7)%writers == g and inserts recombinations of
	// existing terms (so the dictionary never grows and the reference
	// below can replay it exactly). Inserts never collide with deletes,
	// so (base \ deletes) ∪ inserts is the unique final state.
	tripleKey := func(tr sparqluo.Triple) string {
		return tr.S.String() + "\x00" + tr.P.String() + "\x00" + tr.O.String()
	}
	const writers = 4
	delSet := make(map[string]bool)
	dels := make([][]sparqluo.Triple, writers)
	for i := 3; i < len(base); i += 7 {
		g := (i / 7) % writers
		dels[g] = append(dels[g], base[i])
		delSet[tripleKey(base[i])] = true
	}
	ins := make([][]sparqluo.Triple, writers)
	var insAll []sparqluo.Triple
	for i := 0; i+1 < len(base); i += 5 {
		cand := sparqluo.Triple{S: base[i].S, P: base[i+1].P, O: base[i+1].O}
		if delSet[tripleKey(cand)] {
			continue
		}
		g := (i / 5) % writers
		ins[g] = append(ins[g], cand)
		insAll = append(insAll, cand)
	}

	var writerWG, readerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			di, ii := dels[g], ins[g]
			for len(di) > 0 || len(ii) > 0 {
				if n := min(9, len(ii)); n > 0 {
					if err := db.Insert(ii[:n]...); err != nil {
						t.Error(err)
						return
					}
					ii = ii[n:]
				}
				if n := min(7, len(di)); n > 0 {
					if err := db.Delete(di[:n]...); err != nil {
						t.Error(err)
						return
					}
					di = di[n:]
				}
			}
		}()
	}
	readersDone := make(chan struct{})
	for r := 0; r < 2; r++ {
		r := r
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			eng := []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin}[r%2]
			for {
				select {
				case <-readersDone:
					return
				default:
				}
				if _, err := db.Query(parallelTestQuery, sparqluo.WithEngine(eng)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(readersDone)
	readerWG.Wait()
	stop()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	var final []sparqluo.Triple
	for _, tr := range base {
		if !delSet[tripleKey(tr)] {
			final = append(final, tr)
		}
	}
	final = append(final, insAll...)
	ref := liveReference(base, nil, final)
	if db.NumTriples() != ref.NumTriples() {
		t.Fatalf("NumTriples = %d, want %d", db.NumTriples(), ref.NumTriples())
	}
	for _, strat := range []sparqluo.Strategy{sparqluo.Base, sparqluo.Full} {
		for _, eng := range []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin} {
			opts := []sparqluo.Option{sparqluo.WithStrategy(strat), sparqluo.WithEngine(eng)}
			want := queryJSON(t, ref, parallelTestQuery, opts)
			got := queryJSON(t, db, parallelTestQuery, opts)
			if !bytes.Equal(want, got) {
				t.Errorf("%v/%v: quiesced live store differs from frozen reference", strat, eng)
			}
		}
	}
}

// TestResultCacheHerdPerEpoch is the thundering herd that follows every
// write batch on a live server: each round inserts a triple that changes
// the answer, then N clients ask for the same text at once. Whatever the
// interleaving, the text is evaluated exactly once per round (/stats
// counts the fills), every client gets the bytes a direct Query gives at
// that state, and nobody is served the previous round's answer.
func TestResultCacheHerdPerEpoch(t *testing.T) {
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(4), sparqluo.WithMaxInFlight(2)))
	defer srv.Close()
	const text = `SELECT ?s WHERE { ?s <http://ex.org/p> <http://ex.org/o> }`
	params := "query=" + url.QueryEscape(text)

	const rounds, clients = 6, 16
	for round := 0; round < rounds; round++ {
		if err := db.Insert(sparqluo.Triple{S: sparqluo.NewIRI(fmt.Sprintf("http://ex.org/s%d", round)),
			P: sparqluo.NewIRI("http://ex.org/p"), O: sparqluo.NewIRI("http://ex.org/o")}); err != nil {
			t.Fatal(err)
		}
		want := string(queryJSON(t, db, text, nil))
		replies := make([]cacheReply, clients)
		var wg sync.WaitGroup
		for c := range replies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[c] = cacheGet(t, srv, params)
			}()
		}
		wg.Wait()
		for c, r := range replies {
			if r.status != http.StatusOK || r.body != want {
				t.Fatalf("round %d client %d: status %d (%s), body differs from a direct Query", round, c, r.status, r.result)
			}
		}
	}
	c := cacheCounters(t, srv)
	if c["result-cache-fills"] != rounds || c["result-cache-hits"]+c["result-cache-waits"] != rounds*(clients-1) {
		t.Errorf("%d rounds × %d clients: %v, want %d fills and %d hits+waits", rounds, clients, c, rounds, rounds*(clients-1))
	}
}

// TestResultCacheReadersBesideWriter runs readers of one memoized text
// while a writer keeps inserting rows that belong to its answer. A
// reader never sees the answer shrink (a body of an older epoch served
// after a newer one would), and once the writer has stopped every
// reader's next answer is the final state.
func TestResultCacheReadersBesideWriter(t *testing.T) {
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(4)))
	defer srv.Close()
	const text = `SELECT ?s WHERE { ?s <http://ex.org/p> <http://ex.org/o> }`
	params := "query=" + url.QueryEscape(text)

	writes := 200
	if raceEnabled {
		writes = 60
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one more request: it starts after the last write was acknowledged
				default:
				}
				r := cacheGet(t, srv, params)
				rows := strings.Count(r.body, `"s":`)
				if r.status != http.StatusOK || rows < last {
					t.Errorf("reader %d: status %d, %d rows after having seen %d", reader, r.status, rows, last)
					return
				}
				last = rows
			}
			if last != writes {
				t.Errorf("reader %d: %d rows after the writer stopped, want %d", reader, last, writes)
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if err := db.Insert(sparqluo.Triple{S: sparqluo.NewIRI(fmt.Sprintf("http://ex.org/s%d", i)),
			P: sparqluo.NewIRI("http://ex.org/p"), O: sparqluo.NewIRI("http://ex.org/o")}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
