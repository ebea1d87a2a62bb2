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
