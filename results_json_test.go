package sparqluo_test

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparqluo"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
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

// goldenQuery mixes UNION and OPTIONAL so both contribute rows whose
// order the serialization must keep stable.
const goldenQuery = `
	PREFIX g: <http://g/>
	SELECT ?s ?name ?o ?role ?age WHERE {
		?s g:name ?name
		{ ?s g:knows ?o } UNION { ?o g:knows ?s }
		OPTIONAL { ?s g:role ?role }
		OPTIONAL { ?s g:age ?age }
	}`

// TestWriteJSONGolden locks the W3C JSON serialization byte-for-byte
// against testdata/results_golden.json: any nondeterminism in solution
// ordering (or any serializer drift) fails the comparison. Refresh the
// file with go test -run TestWriteJSONGolden -update-golden.
func TestWriteJSONGolden(t *testing.T) {
	db := goldenDB()
	golden := filepath.Join("testdata", "results_golden.json")
	res, err := db.Query(goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
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
		t.Errorf("JSON output diverged from golden file\ngot:  %s\nwant: %s", sb.String(), want)
	}
}

// BenchmarkWriteJSON measures the W3C JSON writer alone on LUBM-1's
// SELECT * { ?s ?p ?o } into io.Discard; the query runs outside the
// timer. In the plain case no term needs escaping, so every cell takes
// the raw-copy path. In the escape-heavy case every IRI holds a '&' and
// every literal a quote, '<' and a tab, so every cell is escaped byte
// by byte.
func BenchmarkWriteJSON(b *testing.B) {
	escaped := func(t rdf.Term) rdf.Term {
		if t.Kind == rdf.IRI {
			t.Value += "?a&b"
		} else {
			t.Value = "\"" + t.Value + "\" <\t>"
		}
		return t
	}
	plain := lubm.Generate(lubm.DefaultConfig(1))
	heavy := make([]sparqluo.Triple, len(plain))
	for i, t := range plain {
		heavy[i] = sparqluo.Triple{S: escaped(t.S), P: escaped(t.P), O: escaped(t.O)}
	}
	for _, bc := range []struct {
		name    string
		triples []sparqluo.Triple
	}{{"plain", plain}, {"escape-heavy", heavy}} {
		b.Run(bc.name, func(b *testing.B) {
			db := sparqluo.Open()
			db.AddAll(bc.triples)
			db.Freeze()
			query := func() *sparqluo.Results {
				res, err := db.Query(`SELECT * WHERE { ?s ?p ?o }`)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			var n countingWriter
			if err := query().WriteJSON(&n); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				res := query()
				b.StartTimer()
				if err := res.WriteJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
