package sparqluo_test

import (
	"bytes"
	"strings"
	"testing"

	"sparqluo"
)

const apiTestData = `
@prefix ex: <http://ex.org/> .
ex:alice ex:knows ex:bob .
ex:alice ex:name "Alice" .
ex:bob ex:name "Bob" .
ex:bob ex:age "42" .
ex:carol ex:knows ex:alice .
`

func openTestDB(t testing.TB) *sparqluo.DB {
	t.Helper()
	db := sparqluo.Open()
	if err := db.Load(strings.NewReader(apiTestData)); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return db
}

// TestNULLiteralsStayDistinct: a plain literal whose value holds a NUL
// and then what reads as a language tag or datatype is its own term, not
// an alias of the tagged literal, so neither triple is lost.
func TestNULLiteralsStayDistinct(t *testing.T) {
	for _, pair := range [][2]string{
		{`"a` + "\x00" + `@en"`, `"a"@en`},
		{`"a` + "\x00" + `^http://ex.org/dt"`, `"a"^^<http://ex.org/dt>`},
	} {
		db := sparqluo.Open()
		doc := "<http://ex.org/s> <http://ex.org/p> " + pair[0] + " .\n<http://ex.org/s> <http://ex.org/p> " + pair[1] + " .\n"
		if err := db.Load(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		if err := db.Freeze(); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(`SELECT ?o WHERE { <http://ex.org/s> <http://ex.org/p> ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[sparqluo.Term]bool{}
		for _, sol := range res.Solutions() {
			seen[sol["o"]] = true
		}
		if len(seen) != 2 {
			t.Errorf("%s and %s: %d distinct answers %v, want 2", pair[0], pair[1], len(seen), seen)
		}
	}
}

// TestQueryEscapesMatchData: a query reads a string as an N-Triples
// file does, so the escapes \u00e9, \b and \' in a query constant find
// the triple loaded with the same escapes, and the characters written
// out find it too.
func TestQueryEscapesMatchData(t *testing.T) {
	db := sparqluo.Open()
	if err := db.Load(strings.NewReader(`<http://ex.org/s> <http://ex.org/p> "caf\u00e9 \b \'q\'"@fr .` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	for _, lit := range []string{`"caf\u00e9 \b \'q\'"@fr`, "\"caf\u00e9 \b 'q'\"@fr", `"caf\U000000E9 \u0008 \u0027q'"@fr`} {
		res, err := db.Query(`SELECT ?s WHERE { ?s <http://ex.org/p> ` + lit + ` }`)
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		if sols := res.Solutions(); len(sols) != 1 || sols[0]["s"] != sparqluo.NewIRI("http://ex.org/s") {
			t.Errorf("%s: solutions %v, want ?s = <http://ex.org/s>", lit, sols)
		}
	}
}

// TestParseStrategyRoundTrips holds ParseStrategy to the names
// Strategy.String prints ("TT", "CP"), which the §7 benchmarks report.
func TestParseStrategyRoundTrips(t *testing.T) {
	for _, s := range []sparqluo.Strategy{sparqluo.Base, sparqluo.TT, sparqluo.CP, sparqluo.Full} {
		if got, err := sparqluo.ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
}

func TestQueryBasic(t *testing.T) {
	db := openTestDB(t)
	res, err := db.Query(`
		PREFIX ex: <http://ex.org/>
		SELECT ?who ?name WHERE { ?who ex:name ?name }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("Len = %d, want 2", res.Len())
	}
	names := map[string]bool{}
	for _, sol := range res.Solutions() {
		names[sol["name"].Value] = true
	}
	if !names["Alice"] || !names["Bob"] {
		t.Errorf("names = %v", names)
	}
}

func TestQueryOptionalUnbound(t *testing.T) {
	db := openTestDB(t)
	res, err := db.Query(`
		PREFIX ex: <http://ex.org/>
		SELECT ?who ?age WHERE {
			?who ex:name ?n .
			OPTIONAL { ?who ex:age ?age }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	withAge, withoutAge := 0, 0
	for _, sol := range res.Solutions() {
		if _, ok := sol["age"]; ok {
			withAge++
		} else {
			withoutAge++
		}
	}
	if withAge != 1 || withoutAge != 1 {
		t.Errorf("withAge=%d withoutAge=%d, want 1/1", withAge, withoutAge)
	}
}

func TestQueryBeforeFreezeFails(t *testing.T) {
	db := sparqluo.Open()
	db.Add(sparqluo.Triple{
		S: sparqluo.NewIRI("http://e/s"),
		P: sparqluo.NewIRI("http://e/p"),
		O: sparqluo.NewIRI("http://e/o"),
	})
	if _, err := db.Query(`SELECT * WHERE { ?s ?p ?o }`); err == nil {
		t.Error("query before Freeze should fail")
	}
}

func TestQuerySyntaxError(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Query(`SELECT WHERE { ?x }`); err == nil {
		t.Error("want syntax error")
	}
}

func TestExplain(t *testing.T) {
	db := openTestDB(t)
	before, after, err := db.Explain(`
		PREFIX ex: <http://ex.org/>
		SELECT * WHERE {
			?a ex:knows ?b .
			?a ex:name ?n .
			OPTIONAL { ?b ex:age ?age }
		}`, sparqluo.WithStrategy(sparqluo.TT))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before, "OPTIONAL") || !strings.Contains(after, "OPTIONAL") {
		t.Errorf("plans should render OPTIONAL nodes:\n%s\n%s", before, after)
	}
}

func TestResultsMetadata(t *testing.T) {
	db := openTestDB(t)
	res, err := db.Query(`
		PREFIX ex: <http://ex.org/>
		SELECT ?who WHERE { ?who ex:name ?n OPTIONAL { ?who ex:age ?a } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinSpace() <= 0 {
		t.Error("JoinSpace should be positive")
	}
	if got := res.Vars(); len(got) != 1 || got[0] != "who" {
		t.Errorf("Vars = %v", got)
	}
	if res.ExecTime() <= 0 {
		t.Error("ExecTime should be positive")
	}
}

func TestAddAllAndNumTriples(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll([]sparqluo.Triple{
		{S: sparqluo.NewIRI("a"), P: sparqluo.NewIRI("p"), O: sparqluo.NewLiteral("1")},
		{S: sparqluo.NewIRI("a"), P: sparqluo.NewIRI("p"), O: sparqluo.NewLiteral("1")}, // dup
		{S: sparqluo.NewIRI("b"), P: sparqluo.NewIRI("p"), O: sparqluo.NewBlank("x")},
	})
	if db.NumTriples() != 2 {
		t.Errorf("NumTriples = %d, want 2 (duplicate dropped)", db.NumTriples())
	}
}

func queryJSON(t *testing.T, db *sparqluo.DB, text string, opts []sparqluo.Option) []byte {
	t.Helper()
	res, err := db.Query(text, opts...)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}
