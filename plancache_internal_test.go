package sparqluo

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqluo/internal/sparql"
)

// TestPlanCacheHashInsidePrefixedName is the regression test for the
// key collision: two queries differing only behind a '#' inside a
// prefixed name shared one cache entry and its memoized response, and a
// text that is invalid only behind such a '#' was answered from the
// valid one's entry.
func TestPlanCacheHashInsidePrefixedName(t *testing.T) {
	db := Open()
	if err := db.Load(strings.NewReader(`<http://ex.org/s1> <http://ex.org/p#a> <http://ex.org/o1> .
<http://ex.org/s1> <http://ex.org/p#b> <http://ex.org/o1> .
<http://ex.org/s2> <http://ex.org/p#b> <http://ex.org/o2> .
`)); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	const head = `PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE `
	qa, qb := head+`{ ?x ex:p#a ?y }`, head+`{ ?x ex:p#b ?y }`
	if sparql.CanonicalText(qa) == sparql.CanonicalText(qb) {
		t.Fatalf("distinct queries share the key %q", sparql.CanonicalText(qa))
	}

	h := NewHandler(db, WithPlanCache(4))
	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, sparqlRequest(context.Background(), query, ""))
		return rec
	}
	for round, wantCache := range []string{"fill", "hit"} {
		for _, q := range []string{qa, qb} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := res.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			rec := get(q)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("round %d, %q: status %d, body %q, want %q", round, q, rec.Code, rec.Body, want.Bytes())
			}
			if got := rec.Header().Get("X-Result-Cache"); got != wantCache {
				t.Errorf("round %d, %q: X-Result-Cache %q, want %q", round, q, got, wantCache)
			}
		}
	}

	valid := head + `{ ?x ?p ?y } LIMIT 10`
	for i := 0; i < 2; i++ { // the second answer is the memoized one
		if rec := get(valid); rec.Code != http.StatusOK {
			t.Fatalf("valid query: status %d", rec.Code)
		}
	}
	if rec := get(valid + "#x"); rec.Code != http.StatusBadRequest {
		t.Errorf("LIMIT 10#x: status %d, want 400 (LIMIT 10 is cached)", rec.Code)
	}
}

func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2)
	p1, p2, p3 := &Prepared{text: "1"}, &Prepared{text: "2"}, &Prepared{text: "3"}
	c.put("a", 0, p1)
	c.put("b", 0, p2)
	if e := c.get("a", 0); e == nil || e.prep != p1 {
		t.Fatal("a should be cached")
	}
	c.put("c", 0, p3) // evicts b (least recently used; a was just touched)
	if c.get("b", 0) != nil {
		t.Error("b should have been evicted")
	}
	if c.get("a", 0) == nil {
		t.Error("a should have survived (recently used)")
	}
	if c.get("c", 0) == nil {
		t.Error("c should be cached")
	}
	if n := c.snapshot().Entries; n != 2 {
		t.Errorf("entries = %d, want 2", n)
	}
	// A second put of one key (two requests missed together) keeps the
	// first entry, so both share its memoized responses.
	if e := c.put("c", 0, &Prepared{text: "3'"}); e.prep != p3 {
		t.Error("duplicate put replaced the entry")
	}
	if n := c.snapshot().Entries; n != 2 {
		t.Errorf("entries after duplicate put = %d, want 2", n)
	}
}

// TestPlanCacheEpochPurge pins the generation rule: a lookup from a
// newer epoch empties the cache (no entry or body of the old epoch is
// reachable afterwards), a plan built by a request that looked up
// before the purge is handed back uncached, and a straggler from the
// old epoch is served from the current generation.
func TestPlanCacheEpochPurge(t *testing.T) {
	c := newPlanCache(4)
	k := respKey{limit: -1}
	c.get("a", 1) // as every request does before put: the cache moves to epoch 1
	old := c.put("a", 1, &Prepared{text: "old"})
	_, _, f := c.begin(old, k)
	c.finish(old, k, f, []byte("old body"), false)
	c.put("b", 1, &Prepared{text: "b"})
	if s := c.snapshot(); s.Entries != 2 || s.Bytes != len("old body") {
		t.Fatalf("before purge: %+v", s)
	}

	if c.get("a", 2) != nil {
		t.Fatal("entry of epoch 1 served to a lookup at epoch 2")
	}
	if s := c.snapshot(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("after purge: %+v, want an empty cache", s)
	}
	if !old.evicted || len(old.variants) != 0 {
		t.Error("purged entry still holds its bodies")
	}
	// A request that looked up at epoch 1 and built its plan meanwhile.
	if e := c.put("a", 1, &Prepared{text: "stale"}); !e.evicted || c.snapshot().Entries != 0 {
		t.Error("plan from an older epoch entered the newer generation")
	}
	cur := c.put("a", 2, &Prepared{text: "new"})
	if e := c.get("a", 1); e != cur {
		t.Error("straggler from epoch 1 not served from the current generation")
	}
	if c.snapshot().Entries != 1 {
		t.Error("straggler lookup disturbed the current generation")
	}
}

// TestResponseMemoBounded drives the memo with a seeded random mix of
// lookups, fills of every size up to the cap, abandoned and overflowed
// fills, variant churn and epoch bumps, and checks after every step
// that the accounted bytes equal the bodies actually reachable, that no
// entry holds more than responseCacheCap, and that the cache holds at
// most n × responseCacheCap.
func TestResponseMemoBounded(t *testing.T) {
	const n = 3
	c := newPlanCache(n)
	rng := rand.New(rand.NewSource(7))
	epoch := uint64(1)
	check := func(step int) {
		t.Helper()
		total := 0
		for _, el := range c.m {
			e := el.Value.(*planCacheEntry)
			sum := 0
			for _, v := range e.variants {
				sum += len(v.body)
			}
			if sum != e.bytes || sum > responseCacheCap || len(e.variants) > maxVariants {
				t.Fatalf("step %d: entry %q holds %d bytes in %d variants (accounted %d)", step, e.key, sum, len(e.variants), e.bytes)
			}
			total += sum
		}
		if s := c.snapshot(); s.Bytes != total || total > n*responseCacheCap || s.Entries > n {
			t.Fatalf("step %d: %d bytes reachable, stats %+v", step, total, s)
		}
	}
	for step := 0; step < 5000; step++ {
		if rng.Intn(200) == 0 {
			epoch++
		}
		key := fmt.Sprint("q", rng.Intn(2*n))
		e := c.get(key, epoch)
		if e == nil {
			e = c.put(key, epoch, &Prepared{text: key})
		}
		k := respKey{limit: rng.Intn(2*maxVariants) - 1}
		body, _, f := c.begin(e, k)
		if f != nil {
			switch rng.Intn(10) {
			case 0:
				c.finish(e, k, f, nil, false)
			case 1:
				c.finish(e, k, f, nil, true)
			default:
				size := 1 + rng.Intn(responseCacheCap)
				if rng.Intn(2) == 0 {
					size = 1 + rng.Intn(responseCacheCap/16)
				}
				c.finish(e, k, f, make([]byte, size), false)
			}
		} else if body == nil && !e.variants[k].tooBig {
			t.Fatalf("step %d: begin returned nothing for a variant that is not known oversize", step)
		}
		check(step)
	}
	if s := c.snapshot(); s.Fills == 0 || s.Hits == 0 || s.Overflows == 0 {
		t.Errorf("mix did not exercise every path: %+v", s)
	}
}

// memoTestDB is a small store whose queries return a few dozen rows.
func memoTestDB(t testing.TB) *DB {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://ex.org/> .\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "ex:p%02d ex:worksFor ex:d%d .\n", i, i%5)
	}
	db := Open()
	if err := db.Load(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return db
}

const memoTestQuery = `PREFIX ex: <http://ex.org/> SELECT ?x ?d WHERE { ?x ex:worksFor ?d }`

// memoTestJSON is the document a direct Query of memoTestQuery encodes.
func memoTestJSON(t *testing.T, db *DB) []byte {
	t.Helper()
	res, err := db.Query(memoTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := res.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

func sparqlRequest(ctx context.Context, query, params string) *http.Request {
	return httptest.NewRequest("GET", "/sparql?"+params+"&query="+url.QueryEscape(query), nil).WithContext(ctx)
}

// waitFor polls cond until it holds; the tests below use it to wait for
// a request to reach a known point inside the handler.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestResponseFillCoalesces: N requests for one cold (text, options)
// cause exactly one evaluation. The filler is held inside
// Prepared.planFor (by owning the plan's mutex) until every other
// request is waiting on its fill, so the count does not depend on
// timing: one fill, N-1 waiters, N identical bodies.
func TestResponseFillCoalesces(t *testing.T) {
	db := memoTestDB(t)
	h := &queryEndpoint{db: db, cache: newPlanCache(4), inflight: make(valve, 1)}
	// Plant the plan through a different variant so the entry exists.
	h.ServeHTTP(httptest.NewRecorder(), sparqlRequest(context.Background(), memoTestQuery, "limit=1"))
	ent := h.cache.get(sparql.CanonicalText(memoTestQuery), 0)
	if ent == nil {
		t.Fatal("plan not cached")
	}
	base := h.cache.snapshot()

	const n = 8
	ent.prep.mu.Lock()
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(recs[i], sparqlRequest(context.Background(), memoTestQuery, ""))
		}()
	}
	waitFor(t, "every other request to wait on the fill", func() bool {
		return h.cache.snapshot().Waits == base.Waits+n-1
	})
	if got := len(h.inflight); got > 1 {
		t.Errorf("%d in-flight slots taken while waiting, want at most the filler's", got)
	}
	ent.prep.mu.Unlock()
	wg.Wait()

	s := h.cache.snapshot()
	if s.Fills != base.Fills+1 || s.Hits != base.Hits {
		t.Errorf("fills %d→%d hits %d→%d, want exactly one evaluation and no hit", base.Fills, s.Fills, base.Hits, s.Hits)
	}
	want := memoTestJSON(t, db)
	outcomes := map[string]int{}
	for i, rec := range recs {
		outcomes[rec.Header().Get("X-Result-Cache")]++
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("request %d: status %d, body differs from a direct Query", i, rec.Code)
		}
	}
	if outcomes["fill"] != 1 || outcomes["wait"] != n-1 {
		t.Errorf("X-Result-Cache outcomes %v, want 1 fill and %d wait", outcomes, n-1)
	}
}

// TestResponseFillAbandoned: a filler whose client goes away mid-fill
// neither fails nor hangs the requests waiting on it — each executes
// for itself — and a waiter whose own deadline passes first gets its
// 504 without waiting for the filler.
func TestResponseFillAbandoned(t *testing.T) {
	db := memoTestDB(t)
	h := &queryEndpoint{db: db, cache: newPlanCache(4)}
	h.ServeHTTP(httptest.NewRecorder(), sparqlRequest(context.Background(), memoTestQuery, "limit=1"))
	ent := h.cache.get(sparql.CanonicalText(memoTestQuery), 0)
	base := h.cache.snapshot()

	ent.prep.mu.Lock()
	fillerCtx, cancelFiller := context.WithCancel(context.Background())
	filler := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(filler, sparqlRequest(fillerCtx, memoTestQuery, ""))
	}()
	waitFor(t, "the filler to register", func() bool {
		h.cache.mu.Lock()
		defer h.cache.mu.Unlock()
		v := ent.variants[respKey{strategy: Full, limit: -1}]
		return v != nil && v.fill != nil
	})

	// A waiter with a deadline of its own is answered when that passes.
	impatient := httptest.NewRecorder()
	h.ServeHTTP(impatient, sparqlRequest(context.Background(), memoTestQuery, "timeout=5ms"))
	if impatient.Code != http.StatusGatewayTimeout {
		t.Errorf("waiter past its deadline: status %d, want 504", impatient.Code)
	}

	const n = 4
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(recs[i], sparqlRequest(context.Background(), memoTestQuery, ""))
		}()
	}
	waitFor(t, "the waiters", func() bool { return h.cache.snapshot().Waits == base.Waits+1+n })
	cancelFiller() // ExecPlan checks the context first: the fill is abandoned for certain
	ent.prep.mu.Unlock()
	wg.Wait()

	if filler.Body.Len() != 0 {
		t.Errorf("cancelled filler wrote %q", filler.Body.String())
	}
	want := memoTestJSON(t, db)
	for i, rec := range recs {
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("waiter %d: status %d, body differs from a direct Query", i, rec.Code)
		}
		if got := rec.Header().Get("X-Result-Cache"); got != "stream" {
			t.Errorf("waiter %d: X-Result-Cache %q, want stream (executed for itself)", i, got)
		}
	}
	if s := h.cache.snapshot(); s.Fills != base.Fills || s.Bytes != base.Bytes {
		t.Errorf("abandoned fill published something: %+v (before %+v)", s, base)
	}
	// The next request fills afresh.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, sparqlRequest(context.Background(), memoTestQuery, ""))
	if got := rec.Header().Get("X-Result-Cache"); got != "fill" {
		t.Errorf("request after an abandoned fill: X-Result-Cache %q, want fill", got)
	}
}

// discardResponse is the cheapest possible http.ResponseWriter, so that
// the allocation count below is the handler's own.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestResponseHitAllocs puts a ceiling on what a memoized answer
// allocates (the normalized key, four header values), far below the
// cheapest evaluation, so the hit path cannot silently regress into
// executing or re-encoding.
func TestResponseHitAllocs(t *testing.T) {
	db := memoTestDB(t)
	req := sparqlRequest(context.Background(), memoTestQuery, "")
	w := &discardResponse{h: make(http.Header)}
	serve := func(h http.Handler) float64 {
		h.ServeHTTP(w, req) // parses the form once; fills the cache if there is one
		return testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	}
	hit := serve(&queryEndpoint{db: db, cache: newPlanCache(4)})
	if got := w.h.Get("X-Result-Cache"); got != "hit" {
		t.Fatalf("X-Result-Cache %q, want hit", got)
	}
	executed := serve(&queryEndpoint{db: db})
	t.Logf("allocs per request: %.0f memoized, %.0f executed", hit, executed)
	if hit > 12 {
		t.Errorf("memoized answer allocates %.0f times per request, ceiling 12", hit)
	}
	if executed < 3*hit {
		t.Errorf("executing allocates %.0f times, memoized %.0f: the ceiling no longer tells them apart", executed, hit)
	}
}
