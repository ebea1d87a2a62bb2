// Serving-path benchmarks: the parse-once/execute-many win of prepared
// queries on a repeated-template workload, and HTTP queries-per-second
// with cold parsing, a memoized response, a warm plan whose answer is
// too large to memoize, and the direct prepared API.
// CI runs these with -benchtime=1x (make bench-serve) as a smoke test;
// use -benchtime=2s locally for real numbers.
package sparqluo_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"sparqluo"
	"sparqluo/internal/lubm"
)

// lubm13DB is the LUBM-13 store of the repeated-template workload,
// built once and shared by the serving benchmarks (read-only after
// Freeze).
var (
	lubm13Once sync.Once
	lubm13     *sparqluo.DB
)

func lubm13DB(tb testing.TB) *sparqluo.DB {
	lubm13Once.Do(func() {
		db := sparqluo.Open()
		db.AddAll(lubm.Generate(lubm.DefaultConfig(13)))
		db.Freeze()
		lubm13 = db
	})
	return lubm13
}

// The qgen-style template workload: one point-selective report query
// asked over and over with a different student parameter — the shape a
// production endpoint serves millions of times. templateEmails rotates
// the parameter so no per-value caching can hide the plan cost.
const serveTemplate = `
	PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
	SELECT ?dept ?name WHERE {
		?s ub:emailAddress ?email .
		?s ub:memberOf ?dept .
		OPTIONAL { ?dept ub:name ?name }
	}`

var templateEmails = []string{
	"UndergraduateStudent0@Department0.University0.edu",
	"UndergraduateStudent1@Department1.University1.edu",
	"UndergraduateStudent2@Department0.University2.edu",
	"UndergraduateStudent3@Department1.University3.edu",
}

func instantiate(i int) string {
	email := templateEmails[i%len(templateEmails)]
	return fmt.Sprintf(`
	PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
	SELECT ?dept ?name WHERE {
		?s ub:emailAddress %q .
		?s ub:memberOf ?dept .
		OPTIONAL { ?dept ub:name ?name }
	}`, email)
}

// BenchmarkQueryOneShot is the baseline a naive serving loop pays per
// request: parse + BE-tree build + transform + evaluate for every
// instantiated template.
func BenchmarkQueryOneShot(b *testing.B) {
	db := lubm13DB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(instantiate(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedExec is the same workload through the prepared path:
// the template is parsed and planned once, each iteration pays only
// Bind + transform + evaluate.
func BenchmarkPreparedExec(b *testing.B) {
	db := lubm13DB(b)
	prep, err := db.Prepare(serveTemplate)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prep.Exec(sparqluo.Bind("email",
			sparqluo.NewLiteral(templateEmails[i%len(templateEmails)])))
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// largeServeQuery is a UO query whose LUBM-13 answer encodes to more
// than the 1 MiB a cached plan memoizes, so with a plan cache it is a
// plan hit that still executes and streams on every request.
const largeServeQuery = `
	PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
	SELECT * WHERE { ?x ub:memberOf ?d OPTIONAL { ?x ub:emailAddress ?e } OPTIONAL { ?x ub:name ?n } }`

// BenchmarkServeHTTP measures end-to-end HTTP QPS on the template
// workload, one fixed text per case: cold-parse (no cache: parse, plan,
// execute, stream), response-cache-hit (the repeated template, answered
// from the bytes memoized under its cached plan), plan-cache-hit (a
// text whose answer is over the memo cap: plan reused, executed and
// streamed every time — the X-Result-Cache header is checked so neither
// case can silently turn into the other) and, as the upper bound the
// HTTP layers sit on, the direct prepared API.
func BenchmarkServeHTTP(b *testing.B) {
	db := lubm13DB(b)

	drive := func(b *testing.B, handler http.Handler, text, wantResult string) {
		srv := httptest.NewServer(handler)
		defer srv.Close()
		client := srv.Client()
		target := srv.URL + "/sparql?query=" + url.QueryEscape(text)
		// Warm the cache (and the connection) outside the timer.
		resp, err := client.Get(target)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(target)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if got := resp.Header.Get("X-Result-Cache"); got != wantResult {
				b.Fatalf("X-Result-Cache = %q, want %q: the case no longer measures what its name says", got, wantResult)
			}
		}
	}

	b.Run("cold-parse", func(b *testing.B) {
		drive(b, sparqluo.NewHandler(db), instantiate(0), "")
	})
	b.Run("plan-cache-hit", func(b *testing.B) {
		drive(b, sparqluo.NewHandler(db, sparqluo.WithPlanCache(16)), largeServeQuery, "stream")
	})
	b.Run("response-cache-hit", func(b *testing.B) {
		drive(b, sparqluo.NewHandler(db, sparqluo.WithPlanCache(16)), instantiate(0), "hit")
	})
	b.Run("prepared-direct", func(b *testing.B) {
		prep, err := db.Prepare(instantiate(0))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := prep.Exec()
			if err != nil {
				b.Fatal(err)
			}
			if err := res.WriteJSON(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
