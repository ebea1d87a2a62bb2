package sparql

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"sparqluo/internal/rdf"
)

// FuzzParse throws arbitrary input at the SPARQL-UO parser. The
// invariants: no panic, and a nil error implies a usable *Query with a
// non-nil pattern. The seed corpus concentrates on the grammar the
// paper exercises — UNION/OPTIONAL nesting — plus modifier clauses and
// pathological fragments (unterminated strings, stray braces).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`SELECT * WHERE { ?s ?p ?o }`,
		`SELECT ?x WHERE { ?x <http://p> "lit" }`,
		`PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:p ?b }`,
		`SELECT * WHERE { { ?a <p> ?b } UNION { ?b <q> ?a } }`,
		`SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c } }`,
		`SELECT * WHERE { { { ?a <p> ?b } UNION { ?a <q> ?b } } UNION { ?a <r> ?b OPTIONAL { ?b <s> ?c } } }`,
		`SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c OPTIONAL { ?c <r> ?d } } OPTIONAL { ?a <s> ?e } }`,
		`SELECT DISTINCT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } } LIMIT 10 OFFSET 2`,
		`SELECT ?x WHERE { ?x <p> "esc\"aped \n lit" }`,
		`SELECT ?x WHERE { ?x <p> "chat"@fr }`,
		`SELECT ?x WHERE { ?x <p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> }`,
		`SELECT * WHERE { _:b <p> ?x . ?x <q> _:b }`,
		`SELECT * WHERE {`,
		`SELECT * WHERE { ?a <p> "unterminated }`,
		`SELECT * WHERE { } } UNION {`,
		`PREFIX : <u> SELECT * WHERE { :a :b :c }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatalf("Parse(%q) returned nil query and nil error", src)
		}
		if q.Where == nil {
			t.Fatalf("Parse(%q) returned query with nil WHERE pattern", src)
		}
	})
}

// FuzzTermSpelling holds the one term syntax to its readers. For any
// term, a triple holding it is Valid exactly when the N-Triples decoder
// reads its spelling back as itself. A literal's spelling inside a
// query lexes to the same value, and respelling each of its characters
// as a \u or \U escape keeps the query's CanonicalText and parse.
func FuzzTermSpelling(f *testing.F) {
	f.Add(byte(rdf.Literal), "café \"q\"\n\\", "fr", "")
	f.Add(byte(rdf.Literal), "a\xff\"b", "", "http://e/dt")
	f.Add(byte(rdf.Literal), "x", "en.", "")
	f.Add(byte(rdf.Literal), "\U0001F600\x00\b", "en us", "")
	f.Add(byte(rdf.IRI), "http://ex/a>b", "", "")
	f.Add(byte(rdf.IRI), "http://e/a\nb", "", "")
	f.Add(byte(rdf.Blank), "b.", "", "")
	f.Add(byte(rdf.Blank), "a b", "", "")
	f.Fuzz(func(t *testing.T, kind byte, value, lang, dt string) {
		tm := rdf.Term{Kind: rdf.TermKind(kind % 4), Value: value, Lang: lang, Datatype: dt}
		s, p := rdf.NewIRI("http://e/s"), rdf.NewIRI("http://e/p")
		trs := []rdf.Triple{{S: s, P: p, O: tm}}
		if tm.Kind == rdf.IRI || tm.Kind == rdf.Blank {
			trs = append(trs, rdf.Triple{S: tm, P: p, O: s}, rdf.Triple{S: s, P: tm, O: s})
		}
		for _, tr := range trs {
			back, err := rdf.ParseAll(strings.NewReader(tr.String()))
			readsBack := err == nil && len(back) == 1 && back[0] == tr
			if tr.Valid() != readsBack {
				t.Fatalf("%q: Valid() = %v, reads back = %v (%v)", tr.String(), tr.Valid(), readsBack, err)
			}
		}
		if tm.Kind != rdf.Literal {
			return
		}
		lit := string(rdf.AppendString(nil, value))
		q := `SELECT * WHERE { ?s ?p "` + lit + `" }`
		pq, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got := pq.Where.Elements[0].(TriplePattern).O.Term; got != rdf.NewLiteral(value) {
			t.Fatalf("%q: object %#v, want the value %q", q, got, value)
		}
		var esc strings.Builder
		for i := 0; i < len(value); {
			r, n := utf8.DecodeRuneInString(value[i:])
			switch {
			case r == utf8.RuneError && n == 1:
				esc.WriteByte(value[i]) // not a character: no escape names it
			case r > 0xFFFF:
				fmt.Fprintf(&esc, `\U%08X`, r)
			default:
				fmt.Fprintf(&esc, `\u%04x`, r)
			}
			i += n
		}
		q2 := `SELECT * WHERE { ?s ?p "` + esc.String() + `" }`
		if a, b := CanonicalText(q), CanonicalText(q2); a != b {
			t.Fatalf("%q and %q: keys %q and %q", q, q2, a, b)
		}
		pq2, err := Parse(q2)
		if err != nil || pq2.String() != pq.String() {
			t.Fatalf("%q parses to %v (%v), %q to %v", q2, pq2, err, q, pq)
		}
	})
}
