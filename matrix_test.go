package sparqluo_test

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"sparqluo"
	"sparqluo/internal/bench"
	"sparqluo/internal/dbpedia"
	"sparqluo/internal/lubm"
	"sparqluo/internal/qgen"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
)

// matrixGrid is the extent of TestMatrix. The race build keeps the
// -short scales, fewer trials and the two extreme strategies: the
// detector's job is interleavings, which it still reaches on every path.
type matrixGrid struct {
	lubm, lubmLive, dbpedia, trials int
	cells                           []cell
}

func gridFor() matrixGrid {
	g, strategies := matrixGrid{13, 5, 1500, 400, nil}, []sparqluo.Strategy{sparqluo.Base, sparqluo.TT, sparqluo.CP, sparqluo.Full}
	if testing.Short() || raceEnabled {
		g.lubm, g.lubmLive, g.dbpedia = 3, 2, 300
	}
	if raceEnabled {
		g.trials, strategies = 100, []sparqluo.Strategy{sparqluo.Base, sparqluo.Full}
	}
	for _, engine := range []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin} {
		for _, strat := range strategies {
			g.cells = append(g.cells, cell{engine, strat})
		}
	}
	return g
}

// cell is one execution configuration.
type cell struct {
	Engine   sparqluo.Engine
	Strategy sparqluo.Strategy
}

// matrixCase is one query of a fixture, with an execution window
// (WithLimit/WithOffset; limit < 0 for none) on top of its text, and
// whether to run it through the serving modes too.
type matrixCase struct {
	name, text    string
	limit, offset int
	serve         bool
}

func (c matrixCase) options(cl cell) []sparqluo.Option {
	return []sparqluo.Option{sparqluo.WithEngine(cl.Engine), sparqluo.WithStrategy(cl.Strategy),
		sparqluo.WithLimit(c.limit), sparqluo.WithOffset(c.offset)}
}

// TestMatrix: every store kind answers every query in every cell —
// engine × strategy — with the oracle's solutions, and with the JSON
// bytes, RowsPulled and join space of the frozen store it is written
// from or replays. Kinds: frozen; image, shards-1, shards-4;
// live, quiesced after an insert/delete/Flush stream; dirty-live, with
// writes left in the memtable. Cases marked serve also run on frozen and
// dirty-live as one Prepared shared by 4 goroutines and over HTTP (fill,
// then memoized hit). Inputs: the paper's queries on LUBM and DBpedia,
// windowed full scans, two small datasets, and random qgen data and
// queries with and without modifier tails.
func TestMatrix(t *testing.T) {
	g := gridFor()
	lubmCases := append(benchCases("LUBM"), matrixCase{"parallel", parallelTestQuery, -1, 0, false})
	for qi, text := range []string{`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, `SELECT ?x ?y WHERE { ?x a ?y }`} {
		for _, w := range [][2]int{{-1, 0}, {3000, 0}, {20000, 0}, {0, 0}, {0, 3}, {1, 0}, {1, 3}, {7, 0}, {7, 3}, {100, 0}, {100, 3}} {
			lubmCases = append(lubmCases, matrixCase{fmt.Sprintf("scan%d/limit=%d/offset=%d", qi, w[0], w[1]), text, w[0], w[1], w[0] >= 0})
		}
	}
	api, err := rdf.ParseAll(strings.NewReader(apiTestData))
	if err != nil {
		t.Fatal(err)
	}
	fixture := func(name string, data []rdf.Triple, cases []matrixCase, stored, live bool) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkFixture(t, g.cells, data, cases, stored, live)
		})
	}
	fixture("LUBM", lubm.Generate(lubm.DefaultConfig(g.lubm)), lubmCases, true, false)
	fixture("LUBM-live", lubm.Generate(lubm.DefaultConfig(g.lubmLive)), benchCases("LUBM"), false, true)
	fixture("DBpedia", dbpedia.Generate(dbpedia.DefaultConfig(g.dbpedia)), benchCases("DBpedia"), true, false)
	fixture("golden", goldenTriples, []matrixCase{{"golden", goldenQuery, -1, 0, true}}, true, true)
	fixture("api", api, []matrixCase{{"api", `PREFIX ex: <http://ex.org/>
		SELECT * WHERE { { ?a ex:knows ?b } UNION { ?b ex:knows ?a } OPTIONAL { ?a ex:name ?n } }`, -1, 0, true}}, true, true)
	for trial := range g.trials {
		data, cases := qgenCases(int64(trial))
		fixture(fmt.Sprint("qgen", trial), data, cases, true, true)
	}
}

func benchCases(dataset string) []matrixCase {
	var cases []matrixCase
	for _, q := range bench.AllQueries() {
		if q.Dataset == dataset {
			cases = append(cases, matrixCase{q.ID, q.Text, -1, 0, false})
		}
	}
	return cases
}

// qgenCases returns a seed's random dataset, pattern, and the pattern
// with a modifier tail, half the time windowed too, which is served.
func qgenCases(seed int64) ([]rdf.Triple, []matrixCase) {
	rng := rand.New(rand.NewSource(seed))
	data := qgen.RandomDataset(rng, 60+rng.Intn(120))
	body := qgen.RandomQuery(rng, qgen.DefaultConfig())
	tail := matrixCase{"tail", qgen.RandomModifiers(rng, body), -1, 0, true}
	if rng.Intn(2) == 0 {
		tail.limit, tail.offset = rng.Intn(8), rng.Intn(5)
	}
	return data, []matrixCase{{"body", body, -1, 0, false}, tail}
}

// kind is one store kind of a fixture, held to ref's answers (JSON bytes,
// RowsPulled, join space) when ref is set, else to oracle's solutions.
type kind struct {
	name   string
	db     *sparqluo.DB
	oracle *oracle
	ref    *kind
	serve  bool              // run the serving modes too
	byCase []map[cell]answer // a reference's answers
	buf    bytes.Buffer
}

// answer is what the matrix keeps of one execution; doc hashes its JSON.
type answer struct {
	doc, size, pulled uint64
	joinSpace         float64
}

var docSeed = maphash.MakeSeed()

// checkFixture serves data as the kinds asked for and checks each case in
// every cell: the references first, then each other kind in a subtest.
func checkFixture(t *testing.T, cells []cell, data []rdf.Triple, cases []matrixCase, stored, live bool) {
	frozen := sparqluo.Open()
	frozen.AddAll(data)
	frozen.Freeze()
	dict := frozen.Store().Dict()
	order := func(a, b rdf.Term) int { // ORDER BY sorts by dictionary ID
		x, _ := dict.Lookup(a)
		y, _ := dict.Lookup(b)
		return cmp.Compare(x, y)
	}
	var refs, kinds []*kind
	if stored {
		ref := &kind{name: "frozen", db: frozen, oracle: newOracle(data, order), serve: true}
		refs = append(refs, ref)
		for _, k := range []int{0, 1, 4} {
			name, path, err := "image", filepath.Join(t.TempDir(), "store"), error(nil)
			if k == 0 {
				err = frozen.WriteSnapshot(path)
			} else {
				name = fmt.Sprint("shards-", k)
				_, err = frozen.WriteShards(path, k)
			}
			db, _, err2 := sparqluo.OpenFile(path)
			if err = cmp.Or(err, err2); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			if db.NumTriples() != frozen.NumTriples() {
				t.Fatalf("%s: %d triples, want %d", name, db.NumTriples(), frozen.NumTriples())
			}
			kinds = append(kinds, &kind{name: name, db: db, ref: ref})
		}
	}
	if live {
		quiesced, final := liveDB(t, data, true)
		dirty, _ := liveDB(t, data, false)
		// Replaying data numbers terms as the live stores did: Delete
		// allocates no ID, and every insert is a triple of data.
		ref := &kind{name: "live-reference", db: liveReference(data, nil, final), oracle: newOracle(final, order)}
		refs = append(refs, ref)
		kinds = append(kinds, &kind{name: "live", db: quiesced, ref: ref},
			&kind{name: "dirty-live", db: dirty, oracle: ref.oracle, serve: true})
		if n := ref.db.NumTriples(); quiesced.NumTriples() != n || dirty.NumTriples() != n {
			t.Fatalf("live stores hold %d and %d triples, want %d", quiesced.NumTriples(), dirty.NumTriples(), n)
		}
	}
	for _, k := range refs {
		for i, c := range cases {
			k.byCase = append(k.byCase, k.check(t, cells, c, i))
		}
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			for i, c := range cases {
				k.check(t, cells, c, i)
			}
		})
	}
}

// check runs case ci as a one-shot Query in every cell and holds each
// answer to ref's or the oracle's.
func (k *kind) check(t *testing.T, cells []cell, c matrixCase, ci int) map[cell]answer {
	q := sparql.MustParse(c.text)
	var want solutions
	if k.oracle != nil {
		want = k.oracle.answer(q)
	}
	answers, agreed := map[cell]answer{}, map[uint64]bool{}
	for _, cl := range cells {
		k.buf.Reset()
		res, err := k.db.Query(c.text, c.options(cl)...)
		if err != nil || res.WriteJSON(&k.buf) != nil {
			t.Fatalf("%s %s %+v: query or encoding failed: %v", c.name, k.name, cl, err)
		}
		doc := k.buf.Bytes()
		a := answer{maphash.Bytes(docSeed, doc), uint64(len(doc)), uint64(res.RowsPulled()), res.JoinSpace()}
		answers[cl] = a
		switch {
		case k.ref != nil && a != k.ref.byCase[ci][cl]:
			err = fmt.Errorf("answer %+v, %s's %+v", a, k.ref.name, k.ref.byCase[ci][cl])
		case k.ref == nil && !agreed[a.doc]:
			agreed[a.doc] = true
			got, derr := decodeResults(doc)
			if err = cmp.Or(derr, agree(got, want, q, c.limit, c.offset)); err != nil {
				err = fmt.Errorf("disagrees with the oracle: %v", err)
			}
		}
		if err != nil {
			t.Errorf("%s %s %+v: %v\n%.300s", c.name, k.name, cl, err, doc)
		}
	}
	if k.serve && c.serve {
		k.checkServing(t, cells, c, answers)
	}
	return answers
}

// checkServing holds to the one-shot answers one Prepared executed from
// 4 goroutines, each taking every fourth cell, and a fresh plan-caching
// handler per cell: a fill (a stream past the memo's cap), then a hit.
func (k *kind) checkServing(t *testing.T, cells []cell, c matrixCase, answers map[cell]answer) {
	prep, err := k.db.Prepare(c.text)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; i < len(cells); i += 4 {
				buf.Reset()
				res, err := prep.Exec(c.options(cells[i])...)
				if err != nil || res.WriteJSON(&buf) != nil || maphash.Bytes(docSeed, buf.Bytes()) != answers[cells[i]].doc {
					t.Errorf("%s %s %+v: prepared answer differs from one-shot (%v)", c.name, k.name, cells[i], err)
				}
			}
		}()
	}
	wg.Wait()
	for _, cl := range cells {
		h := sparqluo.NewHandler(k.db, sparqluo.WithPlanCache(1))
		params := url.Values{"query": {c.text}, "engine": {[2]string{"wco", "binary"}[cl.Engine]},
			"strategy": {cl.Strategy.String()}, "offset": {fmt.Sprint(c.offset)}}
		if c.limit >= 0 {
			params.Set("limit", fmt.Sprint(c.limit))
		}
		var outcomes []string
		for range 2 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?"+params.Encode(), nil))
			outcomes = append(outcomes, rec.Header().Get("X-Result-Cache"))
			if rec.Code != 200 || maphash.Bytes(docSeed, rec.Body.Bytes()) != answers[cl].doc {
				t.Errorf("%s %s %+v: HTTP %d, body differs from one-shot", c.name, k.name, cl, rec.Code)
			}
		}
		if o := strings.Join(outcomes, " "); o != "fill hit" && o != "stream stream" {
			t.Errorf("%s %s %+v: X-Result-Cache %s, want fill then hit", c.name, k.name, cl, o)
		}
	}
}

// liveDB serves data as a live store: the first 4/5 as its base, then
// inserts of the rest among deletes of base triples (repeats are no-ops),
// re-inserts of deleted ones and a Flush every eighth round — two folds
// or more, and writes left in the memtable unless quiesce flushes them.
// It returns the store and the surviving triples.
func liveDB(t *testing.T, data []rdf.Triple, quiesce bool) (*sparqluo.DB, []rdf.Triple) {
	base, extra := data[:len(data)*4/5], data[len(data)*4/5:]
	db := sparqluo.Open()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.AddAll(base))
	must(db.EnableLiveUpdates(sparqluo.LiveOptions{}))
	rng := rand.New(rand.NewSource(7))
	present := make(map[rdf.Triple]bool, len(data))
	for _, tr := range base {
		present[tr] = true
	}
	var deleted []rdf.Triple
	for round, next := 0, 0; next < len(extra) || round < 40; round++ {
		switch round % 4 {
		case 0, 2: // insert a batch of new triples
			batch := extra[next : next+min(1+rng.Intn(40), len(extra)-next)]
			next += len(batch)
			if len(batch) > 0 {
				must(db.Insert(batch...))
			}
			for _, tr := range batch {
				present[tr] = true
			}
		case 1: // delete a batch of base triples
			var batch []rdf.Triple
			for range min(25, 1+len(base)/50) {
				tr := base[rng.Intn(len(base))]
				if batch = append(batch, tr); present[tr] {
					deleted = append(deleted, tr)
				}
				present[tr] = false
			}
			must(db.Delete(batch...))
		case 3: // re-insert an earlier victim; every other time, flush
			if len(deleted) > 0 {
				tr := deleted[rng.Intn(len(deleted))]
				must(db.Insert(tr))
				present[tr] = true
			}
			if round%8 == 3 {
				must(db.Flush())
			}
		}
	}
	if quiesce {
		must(db.Flush())
	}
	if s, _ := db.LiveStats(); s.Compactions < 2 || (s.MemtableOps == 0) != quiesce {
		t.Fatalf("live store after the op stream: %d compactions, %d memtable ops", s.Compactions, s.MemtableOps)
	}
	return db, slices.DeleteFunc(slices.Clone(data), func(tr rdf.Triple) bool {
		defer delete(present, tr) // keep one of each
		return !present[tr]
	})
}

// FuzzOracle runs a seed's qgen dataset, query and tail through the matrix.
func FuzzOracle(f *testing.F) {
	f.Add(int64(0)) // its tail sorts by DESC(?v3)
	f.Fuzz(func(t *testing.T, seed int64) {
		data, cases := qgenCases(seed)
		checkFixture(t, gridFor().cells, data, cases, true, true)
	})
}
