package sparqluo_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sparqluo"
)

// openWindowDB builds a dataset large enough for pagination windows to
// land strictly inside results: 60 people across 7 departments and 3
// universities, with names for every second person (OPTIONAL coverage).
func openWindowDB(t testing.TB) *sparqluo.DB {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://ex.org/> .\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "ex:person%02d ex:worksFor ex:dept%d .\n", i, i%7)
		if i%2 == 0 {
			fmt.Fprintf(&sb, "ex:person%02d ex:name \"P%02d\" .\n", i, i)
		}
	}
	for j := 0; j < 7; j++ {
		fmt.Fprintf(&sb, "ex:dept%d ex:subOrganizationOf ex:univ%d .\n", j, j%3)
	}
	db := sparqluo.Open()
	if err := db.Load(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return db
}

var windowQueries = []struct{ name, text string }{
	{"join", `PREFIX ex: <http://ex.org/>
		SELECT ?x ?u WHERE { ?x ex:worksFor ?d . ?d ex:subOrganizationOf ?u }`},
	{"optional", `PREFIX ex: <http://ex.org/>
		SELECT ?x ?n WHERE { ?x ex:worksFor ?d . OPTIONAL { ?x ex:name ?n } }`},
	{"union", `PREFIX ex: <http://ex.org/>
		SELECT * WHERE { { ?x ex:worksFor ?y } UNION { ?x ex:subOrganizationOf ?y } }`},
}

var allStrategies = []sparqluo.Strategy{sparqluo.Base, sparqluo.TT, sparqluo.CP, sparqluo.Full}
var allEngines = []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin}

func engName(e sparqluo.Engine) string {
	if e == sparqluo.BinaryJoin {
		return "binary"
	}
	return "wco"
}

// TestWindowIsExactPrefix is the core LIMIT/OFFSET contract: for every
// engine × strategy, the windowed result equals the corresponding slice
// of the same configuration's unlimited result — early termination may
// only cut work, never change rows.
func TestWindowIsExactPrefix(t *testing.T) {
	db := openWindowDB(t)
	for _, q := range windowQueries {
		for _, eng := range allEngines {
			for _, strat := range allStrategies {
				cfg := []sparqluo.Option{sparqluo.WithEngine(eng), sparqluo.WithStrategy(strat)}
				res, err := db.Query(q.text, cfg...)
				if err != nil {
					t.Fatal(err)
				}
				full := res.Solutions()
				if len(full) == 0 {
					t.Fatalf("%s: no rows", q.name)
				}
				windows := [][2]int{ // {limit, offset}
					{0, 0}, {1, 0}, {7, 0}, {7, 5}, {3, len(full) - 2},
					{5, len(full)}, {5, len(full) + 10}, {len(full) + 10, 0},
				}
				for _, w := range windows {
					lim, off := w[0], w[1]
					opts := append([]sparqluo.Option{
						sparqluo.WithLimit(lim),
						sparqluo.WithOffset(off),
					}, cfg...)
					page, err := db.Query(q.text, opts...)
					if err != nil {
						t.Fatal(err)
					}
					lo := min(off, len(full))
					hi := min(off+lim, len(full))
					want := full[lo:hi]
					got := page.Solutions()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s/%v limit=%d offset=%d: got %d rows %v, want %d rows %v",
							q.name, engName(eng), strat, lim, off, len(got), got, len(want), want)
					}
				}
			}
		}
	}
}

// TestTextualWindowMatchesExecWindow: LIMIT/OFFSET written in the query
// text and the same window applied with WithLimit/WithOffset produce
// identical rows, and the two compose (text window first).
func TestTextualWindowMatchesExecWindow(t *testing.T) {
	db := openWindowDB(t)
	base := `PREFIX ex: <http://ex.org/>
		SELECT ?x ?u WHERE { ?x ex:worksFor ?d . ?d ex:subOrganizationOf ?u }`
	for _, eng := range allEngines {
		cfg := []sparqluo.Option{sparqluo.WithEngine(eng)}
		textual, err := db.Query(base+" LIMIT 9 OFFSET 4", cfg...)
		if err != nil {
			t.Fatal(err)
		}
		viaOpts, err := db.Query(base, append([]sparqluo.Option{
			sparqluo.WithLimit(9), sparqluo.WithOffset(4)}, cfg...)...)
		if err != nil {
			t.Fatal(err)
		}
		want, got := textual.Solutions(), viaOpts.Solutions()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: exec window %v != textual window %v", engName(eng), got, want)
		}
		// Composition: a request window paginates WITHIN the text window.
		// Text LIMIT 9 OFFSET 4 then request limit 3 offset 2 = rows 6..8
		// of the unmodified query.
		full, err := db.Query(base, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		composed, err := db.Query(base+" LIMIT 9 OFFSET 4", append([]sparqluo.Option{
			sparqluo.WithLimit(3), sparqluo.WithOffset(2)}, cfg...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := composed.Solutions(), full.Solutions()[6:9]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: composed window %v, want %v", engName(eng), got, want)
		}
		// A request limit wider than the text limit must not widen it.
		wide, err := db.Query(base+" LIMIT 5", append([]sparqluo.Option{
			sparqluo.WithLimit(50)}, cfg...)...)
		if err != nil {
			t.Fatal(err)
		}
		if wide.Len() != 5 {
			t.Errorf("%s: request limit widened text LIMIT 5 to %d rows", engName(eng), wide.Len())
		}
	}
}

// TestOrderByDeterministic: with a key that is unique per row the order
// is fully determined, so every engine and strategy must return the
// identical row sequence; DESC is its exact reverse, and ORDER BY ...
// LIMIT k is its exact k-prefix.
func TestOrderByDeterministic(t *testing.T) {
	db := openWindowDB(t)
	asc := `PREFIX ex: <http://ex.org/>
		SELECT ?x ?u WHERE { ?x ex:worksFor ?d . ?d ex:subOrganizationOf ?u } ORDER BY ?x`
	var ref []sparqluo.Solution
	for _, eng := range allEngines {
		for _, strat := range allStrategies {
			cfg := []sparqluo.Option{
				sparqluo.WithEngine(eng), sparqluo.WithStrategy(strat)}
			res, err := db.Query(asc, cfg...)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Solutions()
			if ref == nil {
				ref = got
				if len(ref) != 60 {
					t.Fatalf("rows = %d, want 60", len(ref))
				}
				for i := 1; i < len(ref); i++ {
					if ref[i-1]["x"].Value > ref[i]["x"].Value {
						t.Fatalf("not sorted at %d: %v > %v", i, ref[i-1]["x"], ref[i]["x"])
					}
				}
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s/%v: ORDER BY result differs from reference", engName(eng), strat)
			}
			desc, err := db.Query(strings.Replace(asc, "ORDER BY ?x", "ORDER BY DESC ?x", 1), cfg...)
			if err != nil {
				t.Fatal(err)
			}
			dsol := desc.Solutions()
			for i := range dsol {
				if !reflect.DeepEqual(dsol[i], ref[len(ref)-1-i]) {
					t.Errorf("%s/%v: DESC row %d is not ASC row %d", engName(eng), strat, i, len(ref)-1-i)
					break
				}
			}
			topk, err := db.Query(asc+" LIMIT 11 OFFSET 3", cfg...)
			if err != nil {
				t.Fatal(err)
			}
			if got := topk.Solutions(); !reflect.DeepEqual(got, ref[3:14]) {
				t.Errorf("%s/%v: ORDER BY LIMIT window %v, want %v", engName(eng), strat, got, ref[3:14])
			}
		}
	}
}

// TestOrderByMultisetPreserved: ORDER BY reorders but never adds or
// drops rows, including under OPTIONAL where the sort key may be
// unbound (unbound sorts first, ascending).
func TestOrderByMultisetPreserved(t *testing.T) {
	db := openWindowDB(t)
	q := `PREFIX ex: <http://ex.org/>
		SELECT ?x ?n WHERE { ?x ex:worksFor ?d . OPTIONAL { ?x ex:name ?n } }`
	for _, eng := range allEngines {
		plain, err := db.Query(q, sparqluo.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := db.Query(q+" ORDER BY ?n", sparqluo.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		osol := ordered.Solutions()
		if len(osol) != plain.Len() {
			t.Fatalf("%s: ORDER BY changed cardinality %d -> %d", engName(eng), plain.Len(), len(osol))
		}
		// The 30 unnamed people (unbound ?n) must all sort before any
		// named one.
		for i, sol := range osol {
			if _, bound := sol["n"]; bound != (i >= 30) {
				t.Fatalf("%s: row %d bound=%v, want unbound rows first", engName(eng), i, bound)
			}
		}
	}
}

// TestWindowedQueryRowsPulled: early termination is observable — a tight
// LIMIT on the join query must pull far fewer rows than the full run.
func TestWindowedQueryRowsPulled(t *testing.T) {
	db := openWindowDB(t)
	q := `PREFIX ex: <http://ex.org/>
		SELECT ?x ?u WHERE { ?x ex:worksFor ?d . ?d ex:subOrganizationOf ?u }`
	for _, eng := range allEngines {
		full, err := db.Query(q, sparqluo.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		capped, err := db.Query(q, sparqluo.WithEngine(eng), sparqluo.WithLimit(2))
		if err != nil {
			t.Fatal(err)
		}
		if capped.RowsPulled() >= full.RowsPulled() {
			t.Errorf("%s: LIMIT 2 pulled %d rows, full run pulled %d — no early termination",
				engName(eng), capped.RowsPulled(), full.RowsPulled())
		}
	}
}
