package sparqluo_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"sparqluo"
	"sparqluo/internal/lubm"
)

// TestPreparedBindEquivalence checks Bind's substitution semantics: a
// prepared template executed with a parameter must return the same
// projected solutions as a one-shot query with the parameter inlined in
// the text, for several parameter values over one plan.
func TestPreparedBindEquivalence(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(2)))
	db.Freeze()

	const template = `
		PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT ?dept ?name WHERE {
			?s ub:emailAddress ?email .
			?s ub:memberOf ?dept .
			OPTIONAL { ?dept ub:name ?name }
		}`
	prep, err := db.Prepare(template)
	if err != nil {
		t.Fatal(err)
	}

	emails := []string{
		"UndergraduateStudent0@Department0.University0.edu",
		"UndergraduateStudent1@Department1.University1.edu",
		"nobody@nowhere.example.org", // absent from the data: zero rows
	}
	for _, email := range emails {
		oneShot := strings.Replace(template, "?email", fmt.Sprintf("%q", email), 1)
		for _, eng := range []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin} {
			ref, err := db.Query(oneShot, sparqluo.WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			var refJSON strings.Builder
			if err := ref.WriteJSON(&refJSON); err != nil {
				t.Fatal(err)
			}
			got, err := prep.Exec(sparqluo.WithEngine(eng),
				sparqluo.Bind("email", sparqluo.NewLiteral(email)))
			if err != nil {
				t.Fatal(err)
			}
			var gotJSON strings.Builder
			if err := got.WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if gotJSON.String() != refJSON.String() {
				t.Errorf("email=%s engine=%d: bound execution differs from inlined text\ngot:  %s\nwant: %s",
					email, eng, gotJSON.String(), refJSON.String())
			}
		}
	}
}

// TestPreparedBindReportsParameter: a bound variable that is projected
// must appear bound to the parameter value in every row.
func TestPreparedBindReportsParameter(t *testing.T) {
	db := openTestDB(t)
	prep, err := db.Prepare(`PREFIX ex: <http://ex.org/> SELECT ?who ?name WHERE { ?who ex:name ?name }`)
	if err != nil {
		t.Fatal(err)
	}
	alice := sparqluo.NewIRI("http://ex.org/alice")
	res, err := prep.Exec(sparqluo.Bind("?who", alice))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("Len = %d, want 1", res.Len())
	}
	for _, row := range res.Rows() {
		who, ok := row.Term(0)
		if !ok || who != alice {
			t.Errorf("?who = %v (bound=%v), want the parameter %v", who, ok, alice)
		}
		if name, ok := row.Term(1); !ok || name.Value != "Alice" {
			t.Errorf("?name = %v (bound=%v)", name, ok)
		}
	}
}

// TestPreparedBindUnknownVar: binding a variable the query does not
// mention must fail loudly instead of silently returning the template
// results.
func TestPreparedBindUnknownVar(t *testing.T) {
	db := openTestDB(t)
	prep, err := db.Prepare(`PREFIX ex: <http://ex.org/> SELECT ?who WHERE { ?who ex:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = prep.Exec(sparqluo.Bind("nope", sparqluo.NewLiteral("x")))
	if err == nil || !strings.Contains(err.Error(), "no such variable") {
		t.Errorf("err = %v, want unknown-variable error", err)
	}
}

// TestPrepareRequiresFreeze mirrors the Query contract.
func TestPrepareRequiresFreeze(t *testing.T) {
	db := sparqluo.Open()
	if _, err := db.Prepare(`SELECT * WHERE { ?s ?p ?o }`); err == nil {
		t.Error("Prepare before Freeze should fail")
	}
}

// TestResultsSingleIteration locks down the cursor contract: exactly
// one of Rows/Solutions/WriteJSON consumes a Results; later attempts
// yield nothing and record ErrResultsConsumed, and Close is an
// idempotent early release.
func TestResultsSingleIteration(t *testing.T) {
	db := openTestDB(t)
	q := `PREFIX ex: <http://ex.org/> SELECT ?who ?name WHERE { ?who ex:name ?name }`

	t.Run("rows-twice", func(t *testing.T) {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for range res.Rows() {
			n++
		}
		if n != 2 {
			t.Fatalf("first iteration saw %d rows, want 2", n)
		}
		if res.Err() != nil {
			t.Fatalf("Err after first iteration = %v", res.Err())
		}
		for range res.Rows() {
			t.Error("second iteration yielded a row")
		}
		if !errors.Is(res.Err(), sparqluo.ErrResultsConsumed) {
			t.Errorf("Err = %v, want ErrResultsConsumed", res.Err())
		}
	})

	t.Run("writejson-then-solutions", func(t *testing.T) {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		if sols := res.Solutions(); len(sols) != 0 {
			t.Errorf("Solutions after WriteJSON returned %d rows", len(sols))
		}
		if !errors.Is(res.Err(), sparqluo.ErrResultsConsumed) {
			t.Errorf("Err = %v, want ErrResultsConsumed", res.Err())
		}
		if err := res.WriteJSON(io.Discard); !errors.Is(err, sparqluo.ErrResultsConsumed) {
			t.Errorf("second WriteJSON err = %v, want ErrResultsConsumed", err)
		}
	})

	t.Run("close", func(t *testing.T) {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
		if err := res.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		for range res.Rows() {
			t.Error("iteration after Close yielded a row")
		}
		if !errors.Is(res.Err(), sparqluo.ErrResultsConsumed) {
			t.Errorf("Err = %v, want ErrResultsConsumed", res.Err())
		}
		// Metadata survives consumption.
		if res.Len() != 2 || len(res.Vars()) != 2 {
			t.Errorf("metadata after Close: Len=%d Vars=%v", res.Len(), res.Vars())
		}
	})

	t.Run("break-consumes", func(t *testing.T) {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for range res.Rows() {
			break // early exit still consumes the cursor
		}
		for range res.Rows() {
			t.Error("iteration after break yielded a row")
		}
	})
}

// TestWriteJSONStreamingAllocs is the allocation-counting guard for the
// streaming encoder: serializing a result set must cost O(1)
// allocations per document, not O(rows) — i.e. no []Solution, no
// per-row maps, no per-value buffers. The test measures the delta
// between (query) and (query + WriteJSON) with AllocsPerRun and allows
// a small constant budget.
func TestWriteJSONStreamingAllocs(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(1)))
	db.Freeze()
	const q = `SELECT * WHERE { ?s ?p ?o }`

	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Len()
	if rows < 1000 {
		t.Fatalf("want a result set of at least 1000 rows, got %d", rows)
	}

	queryOnly := testing.AllocsPerRun(5, func() {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	queryAndWrite := testing.AllocsPerRun(5, func() {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	delta := queryAndWrite - queryOnly
	t.Logf("rows=%d query=%.0f query+write=%.0f delta=%.1f", rows, queryOnly, queryAndWrite, delta)
	// The encoder itself needs one bufio buffer; leave headroom for
	// harness noise but stay far below one allocation per row.
	if delta > float64(rows)/20 {
		t.Errorf("WriteJSON allocated %.1f times beyond the query itself for %d rows — not O(1) per row", delta, rows)
	}
}
