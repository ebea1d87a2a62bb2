package sparqluo_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparqluo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// goldenTriples is a small fixed dataset exercising every term kind
// the JSON serializer distinguishes (IRIs, plain/lang/typed literals)
// plus UNION and OPTIONAL structure, in a fixed order so the solution
// ordering is reproducible.
var goldenTriples = []sparqluo.Triple{
	{S: sparqluo.NewIRI("http://g/alice"), P: sparqluo.NewIRI("http://g/name"), O: sparqluo.NewLiteral("Alice")},
	{S: sparqluo.NewIRI("http://g/alice"), P: sparqluo.NewIRI("http://g/role"), O: sparqluo.NewLangLiteral("chercheuse", "fr")},
	{S: sparqluo.NewIRI("http://g/alice"), P: sparqluo.NewIRI("http://g/age"), O: sparqluo.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
	{S: sparqluo.NewIRI("http://g/bob"), P: sparqluo.NewIRI("http://g/name"), O: sparqluo.NewLiteral("Bob")},
	{S: sparqluo.NewIRI("http://g/bob"), P: sparqluo.NewIRI("http://g/knows"), O: sparqluo.NewIRI("http://g/alice")},
	{S: sparqluo.NewIRI("http://g/carol"), P: sparqluo.NewIRI("http://g/name"), O: sparqluo.NewLiteral("Carol")},
	{S: sparqluo.NewIRI("http://g/carol"), P: sparqluo.NewIRI("http://g/knows"), O: sparqluo.NewIRI("http://g/bob")},
	{S: sparqluo.NewIRI("http://g/carol"), P: sparqluo.NewIRI("http://g/knows"), O: sparqluo.NewIRI("http://g/alice")},
}

func goldenDB() *sparqluo.DB {
	db := sparqluo.Open()
	db.AddAll(goldenTriples)
	db.Freeze()
	return db
}

// goldenQuery mixes UNION and OPTIONAL so the parallel fan-out paths
// contribute rows whose order the merge must keep stable.
const goldenQuery = `
	PREFIX g: <http://g/>
	SELECT ?s ?name ?o ?role ?age WHERE {
		?s g:name ?name
		{ ?s g:knows ?o } UNION { ?o g:knows ?s }
		OPTIONAL { ?s g:role ?role }
		OPTIONAL { ?s g:age ?age }
	}`

// TestWriteJSONGolden locks the W3C JSON serialization byte-for-byte
// against testdata/results_golden.json, under maximum parallelism: any
// nondeterminism the worker pool introduced in solution ordering (or
// any serializer drift) fails the comparison. Refresh the file with
// go test -run TestWriteJSONGolden -update-golden.
func TestWriteJSONGolden(t *testing.T) {
	db := goldenDB()
	golden := filepath.Join("testdata", "results_golden.json")
	for _, par := range []int{1, 8} {
		res, err := db.Query(goldenQuery, sparqluo.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if par == 1 && *updateGolden {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Errorf("parallelism=%d: JSON output diverged from golden file\ngot:  %s\nwant: %s",
				par, sb.String(), want)
		}
	}
}
