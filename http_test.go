package sparqluo_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqluo"
	"sparqluo/internal/lubm"
)

func TestHTTPSparqlEndpoint(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()

	q := url.QueryEscape(`PREFIX ex: <http://ex.org/> SELECT ?who ?name WHERE { ?who ex:name ?name }`)
	resp, err := http.Get(srv.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type %q", ct)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("bindings = %d, want 2", len(doc.Results.Bindings))
	}
	for _, b := range doc.Results.Bindings {
		if b["who"].Type != "uri" {
			t.Errorf("?who type = %q", b["who"].Type)
		}
		if b["name"].Type != "literal" {
			t.Errorf("?name type = %q", b["name"].Type)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()

	cases := []string{
		"/sparql",                      // missing query
		"/sparql?query=SELECT+garbage", // syntax error
		"/sparql?query=SELECT+*+WHERE+%7B%7D&strategy=warp", // bad strategy
		"/sparql?query=SELECT+*+WHERE+%7B%7D&engine=gpu",    // bad engine
	}
	for _, path := range cases {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestHTTPStats(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "triples: 5") {
		t.Errorf("stats body:\n%s", body)
	}
	if !strings.Contains(body, "dict-bytes: ") || !strings.Contains(body, "dict-index-bytes: ") || !strings.Contains(body, "dict=") {
		t.Errorf("stats body missing dictionary footprint:\n%s", body)
	}
}

// TestHTTPHealthz: the readiness probe must report 503 while the store
// is still loading (unfrozen) and 200 once it is queryable, so load
// balancers only route traffic to ready replicas. While loading,
// concurrent /stats requests are pure reads of the triples added so far.
func TestHTTPHealthz(t *testing.T) {
	loading := sparqluo.Open() // never frozen: still "loading"
	a := sparqluo.Triple{S: sparqluo.NewIRI("http://ex/a"), P: sparqluo.NewIRI("http://ex/p"), O: sparqluo.NewLiteral("1")}
	b := sparqluo.Triple{S: sparqluo.NewIRI("http://ex/b"), P: sparqluo.NewIRI("http://ex/p"), O: sparqluo.NewLiteral("1")}
	loading.AddAll([]sparqluo.Triple{a, a, b})
	srv := httptest.NewServer(sparqluo.NewHandler(loading))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/stats")
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "triples: 2\n") {
				t.Errorf("loading stats: status %d, want 200 with 2 distinct triples:\n%s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unfrozen healthz: status %d, want 503", resp.StatusCode)
	}

	srv = httptest.NewServer(sparqluo.NewHandler(openTestDB(t)))
	defer srv.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("frozen healthz: status %d, want 200", resp.StatusCode)
	}
}

func TestHTTPStrategyParameter(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()
	q := url.QueryEscape(`PREFIX ex: <http://ex.org/> SELECT * WHERE { ?a ex:knows ?b OPTIONAL { ?a ex:name ?n } }`)
	for _, strat := range []string{"base", "tt", "cp", "full"} {
		resp, err := http.Get(srv.URL + "/sparql?strategy=" + strat + "&engine=binary&query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("strategy %s: status %d", strat, resp.StatusCode)
		}
	}
}

// heavyQuery is a triple cross product no realistic machine can
// materialize on a LUBM store; only cancellation brings it back.
const heavyQuery = `SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }`

// TestHTTPQueryTimeout checks the server-side deadline: a query that
// cannot finish within WithQueryTimeout is aborted through its context
// and answered with 504.
func TestHTTPQueryTimeout(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(1)))
	db.Freeze()
	srv := httptest.NewServer(sparqluo.NewHandler(db,
		sparqluo.WithQueryTimeout(50*time.Millisecond)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(heavyQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
}

// TestHTTPTimeoutParameter checks that a request may lower its own
// deadline via the timeout form parameter, and that malformed values
// are rejected.
func TestHTTPTimeoutParameter(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(1)))
	db.Freeze()
	srv := httptest.NewServer(sparqluo.NewHandler(db,
		sparqluo.WithQueryTimeout(time.Hour))) // server cap far away
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/sparql?timeout=50ms&query=" + url.QueryEscape(heavyQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timeout=50ms: status = %d, want 504", resp.StatusCode)
	}

	for _, bad := range []string{"banana", "-3s", "0"} {
		resp, err := http.Get(srv.URL + "/sparql?timeout=" + bad + "&query=" + url.QueryEscape(heavyQuery))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout=%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestHTTPInFlightLimiter checks the overload valve: with one slot and
// a long-running query holding it, concurrent requests are turned away
// with 503 instead of queueing.
func TestHTTPInFlightLimiter(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(1)))
	db.Freeze()
	srv := httptest.NewServer(sparqluo.NewHandler(db,
		sparqluo.WithMaxInFlight(1),
		sparqluo.WithQueryTimeout(300*time.Millisecond)))
	defer srv.Close()

	heavyDone := make(chan int, 1)
	go func() {
		// The probes below race for the same single slot; retry until the
		// heavy request actually gets in rather than reporting their 503.
		status := -1
		for attempt := 0; attempt < 100; attempt++ {
			resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(heavyQuery))
			if err != nil {
				break
			}
			resp.Body.Close()
			status = resp.StatusCode
			if status != http.StatusServiceUnavailable {
				break
			}
		}
		heavyDone <- status
	}()

	// While the heavy query occupies the only slot (it runs for 300ms),
	// a trivial query must be rejected with 503. Poll: the first probes
	// may race ahead of the heavy request entering the handler.
	small := url.QueryEscape(`SELECT * WHERE { ?s ?p ?o } LIMIT 1`)
	saw503 := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !saw503 {
		resp, err := http.Get(srv.URL + "/sparql?query=" + small)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("503 without Retry-After header")
			}
			saw503 = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !saw503 {
		t.Error("never observed 503 while the slot was held")
	}
	if status := <-heavyDone; status != http.StatusGatewayTimeout {
		t.Errorf("heavy query status = %d, want 504", status)
	}

	// With the slot free again, queries pass.
	resp, err := http.Get(srv.URL + "/sparql?query=" + small)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status = %d, want 200", resp.StatusCode)
	}
}

func TestWriteJSONLangAndTyped(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll([]sparqluo.Triple{
		{S: sparqluo.NewIRI("http://e/s"), P: sparqluo.NewIRI("http://e/p"),
			O: sparqluo.NewLangLiteral("hallo", "de")},
		{S: sparqluo.NewIRI("http://e/s"), P: sparqluo.NewIRI("http://e/q"),
			O: sparqluo.NewTypedLiteral("1", "http://www.w3.org/2001/XMLSchema#integer")},
	})
	db.Freeze()
	res, err := db.Query(`SELECT ?o WHERE { <http://e/s> <http://e/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"xml:lang":"de"`) {
		t.Errorf("missing language tag: %s", sb.String())
	}
	res2, err := db.Query(`SELECT ?o WHERE { <http://e/s> <http://e/q> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := res2.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"datatype":"http://www.w3.org/2001/XMLSchema#integer"`) {
		t.Errorf("missing datatype: %s", sb.String())
	}
}

func TestLimitOffset(t *testing.T) {
	db := openTestDB(t)
	all, err := db.Query(`PREFIX ex: <http://ex.org/> SELECT * WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := db.Query(`PREFIX ex: <http://ex.org/> SELECT * WHERE { ?s ?p ?o } LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Len() != 2 {
		t.Errorf("LIMIT 2: got %d", limited.Len())
	}
	offset, err := db.Query(`PREFIX ex: <http://ex.org/> SELECT * WHERE { ?s ?p ?o } LIMIT 100 OFFSET 3`)
	if err != nil {
		t.Fatal(err)
	}
	if want := all.Len() - 3; offset.Len() != want {
		t.Errorf("OFFSET 3: got %d, want %d", offset.Len(), want)
	}
	zero, err := db.Query(`PREFIX ex: <http://ex.org/> SELECT * WHERE { ?s ?p ?o } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Len() != 0 {
		t.Errorf("LIMIT 0: got %d", zero.Len())
	}
}

// TestHTTPPagination drives the serving-path window: limit/offset form
// parameters slice the result exactly, share one plan-cache entry
// across pages, and reject malformed values.
func TestHTTPPagination(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(8)))
	defer srv.Close()

	q := url.QueryEscape(`SELECT * WHERE { ?s ?p ?o }`)
	fetch := func(extra string) (int, string, []map[string]struct {
		Type  string `json:"type"`
		Value string `json:"value"`
	}) {
		resp, err := http.Get(srv.URL + "/sparql?query=" + q + extra)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, resp.Header.Get("X-Plan-Cache"), nil
		}
		var doc struct {
			Results struct {
				Bindings []map[string]struct {
					Type  string `json:"type"`
					Value string `json:"value"`
				} `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("X-Plan-Cache"), doc.Results.Bindings
	}

	_, cache0, full := fetch("")
	if cache0 != "miss" {
		t.Errorf("first request: X-Plan-Cache = %q, want miss", cache0)
	}
	if len(full) < 4 {
		t.Fatalf("full result has %d rows, need >= 4", len(full))
	}
	// Two pages: both must hit the cache entry the full request created —
	// the window is per-execution, not part of the plan-cache key.
	_, cache1, page1 := fetch("&limit=2")
	_, cache2, page2 := fetch("&limit=2&offset=2")
	if cache1 != "hit" || cache2 != "hit" {
		t.Errorf("paginated requests: X-Plan-Cache = %q/%q, want hit/hit", cache1, cache2)
	}
	if !reflect.DeepEqual(page1, full[:2]) {
		t.Errorf("page 1 = %v, want %v", page1, full[:2])
	}
	if !reflect.DeepEqual(page2, full[2:4]) {
		t.Errorf("page 2 = %v, want %v", page2, full[2:4])
	}
	// An offset past the end is an empty page, not an error.
	if status, _, rest := fetch("&limit=5&offset=9999"); status != http.StatusOK || len(rest) != 0 {
		t.Errorf("offset past end: status %d, %d rows", status, len(rest))
	}
	for _, bad := range []string{"&limit=-1", "&limit=x", "&offset=-2", "&offset=1.5"} {
		if status, _, _ := fetch(bad); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, status)
		}
	}
}

// TestHTTPClientCancelNoResponse: when the client goes away mid-query
// the handler logs and drops — it must not write a status (in
// particular not the 503 that is reserved for the overload valve, whose
// Retry-After would poison intermediaries).
func TestHTTPClientCancelNoResponse(t *testing.T) {
	db := openTestDB(t)
	h := sparqluo.NewHandler(db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when evaluation starts
	req := httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(`SELECT * WHERE { ?s ?p ?o }`), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("cancelled request: wrote status %d body %q, want nothing", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("cancelled request carries Retry-After %q", ra)
	}
}

// TestHTTPLiveUpdateEndpoint walks the live-update surface end to end
// over HTTP: inserts and deletes through POST /update, a forced
// compaction through POST /compact, and the overlay lines /stats and
// /healthz gain on a live database.
func TestHTTPLiveUpdateEndpoint(t *testing.T) {
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/n-triples", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	countBindings := func() int {
		t.Helper()
		q := url.QueryEscape(`SELECT * WHERE { ?s ?p ?o }`)
		resp, err := http.Get(srv.URL + "/sparql?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Results struct {
				Bindings []map[string]struct{ Value string } `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.Results.Bindings)
	}

	nt := "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n" +
		"<http://ex.org/s2> <http://ex.org/p> <http://ex.org/o> .\n"
	if code, body := post("/update", nt); code != http.StatusOK || !strings.Contains(body, `"applied":2`) {
		t.Fatalf("insert: status %d body %s", code, body)
	}
	if n := countBindings(); n != 2 {
		t.Fatalf("after insert: %d bindings, want 2", n)
	}
	if code, body := post("/update?op=delete", "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"); code != http.StatusOK || !strings.Contains(body, `"applied":1`) {
		t.Fatalf("delete: status %d body %s", code, body)
	}
	if n := countBindings(); n != 1 {
		t.Fatalf("after delete: %d bindings, want 1", n)
	}

	// Error surface: unknown op, malformed payload, wrong method.
	if code, _ := post("/update?op=upsert", nt); code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", code)
	}
	if code, _ := post("/update", "not n-triples"); code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", code)
	}
	resp, err := http.Get(srv.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET /update: status %d Allow %q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// Forced compaction folds the memtable (1 surviving triple) into the
	// base; afterwards /stats reports a drained memtable.
	code, body := post("/compact", "")
	if code != http.StatusOK || !strings.Contains(body, `"merged":1`) {
		t.Fatalf("compact: status %d body %s", code, body)
	}
	if n := countBindings(); n != 1 {
		t.Fatalf("after compact: %d bindings, want 1", n)
	}
	statsResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	io.Copy(&sb, statsResp.Body)
	statsResp.Body.Close()
	stats := sb.String()
	for _, want := range []string{"live: true", "memtable-ops: 0", "tombstones: 0", "compactions: 1", "compaction-in-progress: false", "last-compaction: "} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats missing %q:\n%s", want, stats)
		}
	}
	hResp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb strings.Builder
	io.Copy(&hb, hResp.Body)
	hResp.Body.Close()
	if h := hb.String(); hResp.StatusCode != http.StatusOK || !strings.Contains(h, "live: true") || !strings.Contains(h, "memtable-triples: 0") {
		t.Errorf("/healthz status %d body:\n%s", hResp.StatusCode, hb.String())
	}
}

// TestHTTPUpdateRequiresLive pins the 409 contract: update endpoints on
// a read-only database refuse cleanly instead of mutating or panicking.
func TestHTTPUpdateRequiresLive(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db))
	defer srv.Close()
	for _, path := range []string{"/update", "/compact"} {
		resp, err := http.Post(srv.URL+path, "application/n-triples", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("POST %s on read-only db: status %d, want 409", path, resp.StatusCode)
		}
	}
}

// TestHTTPPlanCacheLiveInvalidation pins the epoch-keyed plan cache:
// plans resolve constant terms at build time, so a plan cached before
// an update introduced <http://ex.org/new> would keep answering empty.
// The write must start a fresh cache generation.
func TestHTTPPlanCacheLiveInvalidation(t *testing.T) {
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(8)))
	defer srv.Close()

	q := url.QueryEscape(`SELECT ?o WHERE { <http://ex.org/new> <http://ex.org/p> ?o }`)
	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sparql?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Results struct {
				Bindings []map[string]struct{ Value string } `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.Results.Bindings), resp.Header.Get("X-Plan-Cache")
	}

	if n, cache := get(); n != 0 || cache != "miss" {
		t.Fatalf("before insert: %d bindings (cache %s), want 0 (miss)", n, cache)
	}
	if n, cache := get(); n != 0 || cache != "hit" {
		t.Fatalf("repeat before insert: %d bindings (cache %s), want 0 (hit)", n, cache)
	}
	resp, err := http.Post(srv.URL+"/update", "application/n-triples",
		strings.NewReader("<http://ex.org/new> <http://ex.org/p> <http://ex.org/o> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n, cache := get(); n != 1 || cache != "miss" {
		t.Fatalf("after insert: %d bindings (cache %s), want 1 (miss) — cached plan served a stale term resolution", n, cache)
	}
	if n, cache := get(); n != 1 || cache != "hit" {
		t.Fatalf("repeat after insert: %d bindings (cache %s), want 1 (hit)", n, cache)
	}
}

// cacheReply is one /sparql response as the result-cache tests see it.
type cacheReply struct {
	status        int
	plan, result  string // X-Plan-Cache, X-Result-Cache
	contentLength int64  // -1 when streamed (chunked)
	body          string
}

func cacheGet(t *testing.T, srv *httptest.Server, params string) cacheReply {
	t.Helper()
	// Called from client goroutines too: report, never t.Fatal.
	resp, err := http.Get(srv.URL + "/sparql?" + params)
	if err != nil {
		t.Error(err)
		return cacheReply{}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return cacheReply{resp.StatusCode, resp.Header.Get("X-Plan-Cache"), resp.Header.Get("X-Result-Cache"), resp.ContentLength, string(body)}
}

// cacheCounters reads the cache lines of /stats.
func cacheCounters(t *testing.T, srv *httptest.Server) map[string]int {
	t.Helper()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := map[string]int{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok || !(strings.HasPrefix(name, "plan-cache-") || strings.HasPrefix(name, "result-cache-")) {
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			t.Fatalf("/stats line %q: %v", line, err)
		}
		out[name] = n
	}
	return out
}

// TestHTTPResultCacheByteIdentity: for every engine × strategy × window
// the first request executes and memoizes (fill) and the repeat is
// served from the memo (hit), with the same body under Content-Length.
// Each option set fills for itself — none is ever answered with
// another's body — and /stats accounts for all of it. (That memoized
// bodies equal a direct Query's is TestMatrix's serving column.)
func TestHTTPResultCacheByteIdentity(t *testing.T) {
	db := lubmTestDB(t, 1)
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(4)))
	defer srv.Close()
	const text = `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT ?x ?d ?e WHERE { { ?x ub:headOf ?d } UNION { ?x ub:worksFor ?d } OPTIONAL { ?x ub:emailAddress ?e } }`
	q := "query=" + url.QueryEscape(text)

	variants, bytesHeld := 0, 0
	for _, en := range []string{"wco", "binary"} {
		for _, sn := range []string{"base", "tt", "cp", "full"} {
			bodies := map[string]bool{}
			for _, win := range []string{"", "&limit=7", "&limit=7&offset=3"} {
				params := q + "&engine=" + en + "&strategy=" + sn + win
				first := cacheGet(t, srv, params)
				if first.result != "fill" || first.contentLength != int64(len(first.body)) {
					t.Errorf("%s: first request: X-Result-Cache %q, Content-Length %d for %d bytes; want fill",
						params, first.result, first.contentLength, len(first.body))
				}
				again := cacheGet(t, srv, params)
				if again.result != "hit" || again.plan != "hit" || again.body != first.body || again.contentLength != int64(len(first.body)) {
					t.Errorf("%s: repeat: X-Result-Cache %q, X-Plan-Cache %q, body equal=%v; want hit, hit, true",
						params, again.result, again.plan, again.body == first.body)
				}
				bodies[first.body] = true
				variants++
				bytesHeld += len(first.body)
			}
			if len(bodies) != 3 {
				t.Fatalf("engine=%s strategy=%s: windows do not produce distinct documents; the test cannot tell bodies apart", en, sn)
			}
		}
	}
	c := cacheCounters(t, srv)
	if c["result-cache-fills"] != variants || c["result-cache-hits"] != variants || c["result-cache-bytes"] != bytesHeld ||
		c["plan-cache-entries"] != 1 || c["plan-cache-misses"] != 1 || c["plan-cache-hits"] != 2*variants-1 {
		t.Errorf("/stats after %d variants (%d bytes): %v", variants, bytesHeld, c)
	}

	// WithPlanCache(0) stays on the streaming path: no cache headers, no
	// Content-Length, no cache lines in /stats.
	plain := httptest.NewServer(sparqluo.NewHandler(db))
	defer plain.Close()
	r := cacheGet(t, plain, q)
	if r.plan != "" || r.result != "" || r.contentLength != -1 || r.body != string(queryJSON(t, db, text, nil)) {
		t.Errorf("cache disabled: headers %q/%q, Content-Length %d", r.plan, r.result, r.contentLength)
	}
	if c := cacheCounters(t, plain); len(c) != 0 {
		t.Errorf("cache disabled: /stats reports %v", c)
	}
}

// TestHTTPResultCacheLiveInvalidation: on a live database a memoized
// answer is valid for one write epoch. After an Insert the next request
// re-executes (fill, never hit) and contains the insert; a compaction
// swap invalidates as well (conservative) and no bytes of the older
// epoch stay accounted.
func TestHTTPResultCacheLiveInvalidation(t *testing.T) {
	db, err := sparqluo.OpenLive(sparqluo.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := sparqluo.NewIRI("http://ex.org/p")
	triple := func(i int) sparqluo.Triple {
		return sparqluo.Triple{S: sparqluo.NewIRI(fmt.Sprintf("http://ex.org/s%d", i)), P: p, O: sparqluo.NewIRI("http://ex.org/o")}
	}
	if err := db.Insert(triple(0)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(8)))
	defer srv.Close()
	const text = `SELECT ?s WHERE { ?s <http://ex.org/p> <http://ex.org/o> }`
	q := "query=" + url.QueryEscape(text)

	step := func(name, wantResult string, wantContains string) cacheReply {
		t.Helper()
		r := cacheGet(t, srv, q)
		if r.result != wantResult || r.body != string(queryJSON(t, db, text, nil)) || !strings.Contains(r.body, wantContains) {
			t.Errorf("%s: X-Result-Cache %q (want %q), body %s", name, r.result, wantResult, r.body)
		}
		return r
	}
	step("first", "fill", "http://ex.org/s0")
	before := step("repeat", "hit", "http://ex.org/s0")

	if err := db.Insert(triple(1)); err != nil {
		t.Fatal(err)
	}
	after := step("after insert", "fill", "http://ex.org/s1")
	if after.plan != "miss" {
		t.Errorf("after insert: X-Plan-Cache %q, want miss", after.plan)
	}
	step("repeat after insert", "hit", "http://ex.org/s1")
	if c := cacheCounters(t, srv); c["result-cache-bytes"] != len(after.body) || c["plan-cache-entries"] != 1 {
		t.Errorf("after insert the cache should hold the new body only (%d bytes; the old one had %d): %v", len(after.body), len(before.body), c)
	}

	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	step("after compaction", "fill", "http://ex.org/s1")
	step("repeat after compaction", "hit", "http://ex.org/s1")
}

// TestHTTPResultCacheOverflowStreams: a response larger than the cap is
// streamed exactly as without a cache (chunked, byte-identical), reports
// stream, leaves the memoized bytes unchanged and is executed again next
// time — while a small page of the same text is memoized beside it.
func TestHTTPResultCacheOverflowStreams(t *testing.T) {
	db := lubmTestDB(t, 1)
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(4)))
	defer srv.Close()
	const text = `SELECT * WHERE { ?s ?p ?o } LIMIT 15000`
	q := "query=" + url.QueryEscape(text)
	want := string(queryJSON(t, db, text, nil))
	if len(want) <= 1<<20 {
		t.Fatalf("fixture too small: %d bytes do not exceed the 1 MiB cap", len(want))
	}

	page := cacheGet(t, srv, q+"&limit=3")
	if page.result != "fill" {
		t.Fatalf("page: X-Result-Cache %q, want fill", page.result)
	}
	for i, wantOverflows := range []int{1, 1} { // the second time the variant is known oversize: not even captured
		r := cacheGet(t, srv, q)
		if r.status != http.StatusOK || r.result != "stream" || r.plan != "hit" || r.contentLength != -1 || r.body != want {
			t.Errorf("large request %d: status %d, X-Result-Cache %q, X-Plan-Cache %q, Content-Length %d, body equal=%v",
				i, r.status, r.result, r.plan, r.contentLength, r.body == want)
		}
		c := cacheCounters(t, srv)
		if c["result-cache-bytes"] != len(page.body) || c["result-cache-overflows"] != wantOverflows || c["result-cache-fills"] != 1 {
			t.Errorf("after large request %d: %v, want %d bytes held, %d overflows, 1 fill", i, c, len(page.body), wantOverflows)
		}
	}
	if r := cacheGet(t, srv, q+"&limit=3"); r.result != "hit" || r.body != page.body {
		t.Errorf("page after the large requests: X-Result-Cache %q", r.result)
	}
}

// TestHTTPResultCacheAdmission: memoized answers take no in-flight slot
// — they are served while WithMaxInFlight(1) is saturated — and the
// rest of the request contract is untouched by the cache: parameters
// are validated before anything is looked up (400 even for a memoized
// text), an evaluation that finds the valve full is shed with 503, and
// one that outlives its deadline gets 504.
func TestHTTPResultCacheAdmission(t *testing.T) {
	db := lubmTestDB(t, 1)
	srv := httptest.NewServer(sparqluo.NewHandler(db,
		sparqluo.WithPlanCache(8), sparqluo.WithMaxInFlight(1), sparqluo.WithQueryTimeout(30*time.Second)))
	defer srv.Close()
	hot := "query=" + url.QueryEscape(`SELECT * WHERE { ?s ?p ?o } LIMIT 5`)
	if r := cacheGet(t, srv, hot); r.result != "fill" {
		t.Fatalf("warm-up: X-Result-Cache %q, want fill", r.result)
	}

	// Occupy the only slot until the test is done with it.
	ctx, release := context.WithCancel(context.Background())
	heavyDone := make(chan struct{})
	go func() {
		defer close(heavyDone)
		for ctx.Err() == nil { // the probes below race for the slot: retry until this one holds it
			req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/sparql?query="+url.QueryEscape(heavyQuery), nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	defer func() { release(); <-heavyDone }()
	saturated := false
	for i := 0; !saturated && i < 2000; i++ { // a new text each time: a probe that slips in first is memoized
		cold := "query=" + url.QueryEscape(fmt.Sprintf(`SELECT * WHERE { ?s ?p ?o } LIMIT %d`, 100+i))
		saturated = cacheGet(t, srv, cold).status == http.StatusServiceUnavailable
		time.Sleep(2 * time.Millisecond)
	}
	if !saturated {
		t.Fatal("never observed 503 while the slot was held")
	}

	if r := cacheGet(t, srv, hot); r.status != http.StatusOK || r.result != "hit" {
		t.Errorf("memoized text under saturation: status %d, X-Result-Cache %q; want 200 hit", r.status, r.result)
	}
	for _, bad := range []string{"&timeout=banana", "&timeout=-3s", "&limit=-1", "&limit=x", "&offset=1.5", "&strategy=nope", "&engine=nope"} {
		if r := cacheGet(t, srv, hot+bad); r.status != http.StatusBadRequest {
			t.Errorf("memoized text with %s: status %d, want 400", bad, r.status)
		}
	}
	// A new window of the memoized text must evaluate, so it is shed.
	if r := cacheGet(t, srv, hot+"&limit=2"); r.status != http.StatusServiceUnavailable {
		t.Errorf("new variant under saturation: status %d, want 503", r.status)
	}
	release()
	<-heavyDone

	// The shed fill left nothing behind: the same request now fills.
	var r cacheReply
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if r = cacheGet(t, srv, hot+"&limit=2"); r.status != http.StatusServiceUnavailable { // until the heavy handler has left the valve
			break
		}
	}
	if r.status != http.StatusOK || r.result != "fill" {
		t.Errorf("after release: status %d, X-Result-Cache %q; want 200 fill", r.status, r.result)
	}
	if r := cacheGet(t, srv, "timeout=30ms&query="+url.QueryEscape(heavyQuery)); r.status != http.StatusGatewayTimeout {
		t.Errorf("heavy query through the cache: status %d, want 504", r.status)
	}
}
