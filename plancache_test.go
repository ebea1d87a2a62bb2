package sparqluo_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"sparqluo"
)

// TestHTTPPlanCache checks the serving-path plan cache end to end: the
// first request for a query misses (X-Plan-Cache: miss), repeats hit,
// reformatted copies of the same query share the entry — as do requests
// for a different strategy or engine, which are execution options of the
// one cached plan — and hit responses are byte-identical to miss
// responses and to a direct Query with the same options.
func TestHTTPPlanCache(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(8)))
	defer srv.Close()

	get := func(t *testing.T, rawQuery string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sparql?" + rawQuery)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Plan-Cache"), string(body)
	}

	qText := `PREFIX ex: <http://ex.org/> SELECT ?who ?name WHERE { ?who ex:name ?name }`
	q := url.QueryEscape(qText)
	state, missBody := get(t, "query="+q)
	if state != "miss" {
		t.Errorf("first request: X-Plan-Cache = %q, want miss", state)
	}
	state, hitBody := get(t, "query="+q)
	if state != "hit" {
		t.Errorf("second request: X-Plan-Cache = %q, want hit", state)
	}
	if hitBody != missBody {
		t.Errorf("cache hit served different bytes:\nmiss: %s\nhit:  %s", missBody, hitBody)
	}

	// Any other spelling of the same tokens must hit: blanks only, then
	// keyword case, the other variable sigil, a comment, \v and \f.
	for _, respelled := range []string{
		"PREFIX ex: <http://ex.org/>\n\tSELECT ?who ?name\n\tWHERE {\n\t\t?who ex:name ?name\n\t}",
		"prefix ex:<http://ex.org/>select $who\v$name # all of them\nwhere\f{$who ex:name?name}",
	} {
		state, body := get(t, "query="+url.QueryEscape(respelled))
		if state != "hit" {
			t.Errorf("%q: X-Plan-Cache = %q, want hit", respelled, state)
		}
		if body != missBody {
			t.Errorf("%q served different bytes", respelled)
		}
	}
	// A no-break space is not a blank: that text is no spelling of the
	// cached query, and no query at all.
	if resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(strings.Replace(qText, "SELECT ", "SELECT\xa0", 1))); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no-break space in the query: status %d, want 400", resp.StatusCode)
	}

	// Different strategy or engine → hit, same bytes as a direct Query
	// with those options.
	for params, opt := range map[string]sparqluo.Option{
		"strategy=base": sparqluo.WithStrategy(sparqluo.Base),
		"engine=binary": sparqluo.WithEngine(sparqluo.BinaryJoin),
	} {
		state, body := get(t, params+"&query="+q)
		if state != "hit" {
			t.Errorf("%s: X-Plan-Cache = %q, want hit", params, state)
		}
		res, err := db.Query(qText, opt)
		if err != nil {
			t.Fatal(err)
		}
		var direct strings.Builder
		if err := res.WriteJSON(&direct); err != nil {
			t.Fatal(err)
		}
		if body != direct.String() {
			t.Errorf("%s: cached plan served different bytes than a direct Query:\ncache:  %s\ndirect: %s",
				params, body, direct.String())
		}
	}

	// Without a cache the header is absent entirely.
	plain := httptest.NewServer(sparqluo.NewHandler(db))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Plan-Cache"); got != "" {
		t.Errorf("cache disabled: X-Plan-Cache = %q, want unset", got)
	}
}

// TestHTTPPlanCacheEviction: with capacity 1, a second distinct query
// evicts the first, which then misses again — the cache is bounded.
func TestHTTPPlanCacheEviction(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(1)))
	defer srv.Close()

	state := func(t *testing.T, q string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Plan-Cache")
	}

	q1 := `PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ?s ex:name ?n }`
	q2 := `PREFIX ex: <http://ex.org/> SELECT ?a WHERE { ?s ex:age ?a }`
	if got := state(t, q1); got != "miss" {
		t.Errorf("q1 first: %q, want miss", got)
	}
	if got := state(t, q1); got != "hit" {
		t.Errorf("q1 second: %q, want hit", got)
	}
	if got := state(t, q2); got != "miss" {
		t.Errorf("q2 first: %q, want miss", got)
	}
	if got := state(t, q1); got != "miss" {
		t.Errorf("q1 after eviction: %q, want miss", got)
	}
}

// TestHTTPPlanCacheBadQuery: parse failures must not poison the cache
// or change the error contract.
func TestHTTPPlanCacheBadQuery(t *testing.T) {
	db := openTestDB(t)
	srv := httptest.NewServer(sparqluo.NewHandler(db, sparqluo.WithPlanCache(4)))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELECT garbage"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}
