package rdf

import (
	"io"
	"strings"
	"testing"
)

// FuzzNTriples feeds arbitrary documents to the N-Triples decoder. The
// invariants: no panic, and every successfully decoded triple has
// non-empty term values of a legal kind in each position. The seed
// corpus covers escaped literals (the decoder's trickiest path),
// language tags, typed literals, blank nodes, @prefix directives,
// comments, and truncated junk.
func FuzzNTriples(f *testing.F) {
	seeds := []string{
		"<http://a> <http://b> <http://c> .\n",
		"<http://a> <http://b> \"plain\" .\n",
		"<http://a> <http://b> \"esc\\\"aped\\n tab\\t back\\\\slash\" .\n",
		"<http://a> <http://b> \"uni\\u00e9code \\U0001F600\" .\n",
		"<http://a> <http://b> \"chat\"@fr .\n",
		"<http://a> <http://b> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
		"_:b1 <http://b> _:b2 .\n",
		"# comment line\n\n<http://a> <http://b> <http://c> .\n",
		"@prefix ex: <http://ex.org/> .\nex:a ex:b ex:c .\n",
		"@prefix : <http://d.org/> .\n:x :y \"mixed \\\" quote\" .\n",
		"<http://a> <http://b> \"unterminated .\n",
		"<http://a> <http://b> .\n",
		"<http://a <http://b> <http://c> .\n",
		"\"literal in subject\" <http://b> <http://c> .\n",
		"<http://s> <http://p> \"x\"@en.\n",
		"<http://s> <http://p> _:b.\n",
		"<http://s> <http://p> <http://o> . garbage here\n",
		"@prefix ex: <http://x> y> .\nex:s ex:p ex:o .\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d := NewDecoder(strings.NewReader(src))
		for i := 0; i < 10000; i++ {
			triple, err := d.Decode()
			if err != nil {
				if err == io.EOF {
					return
				}
				// Malformed line: the decoder reports and stops; done.
				return
			}
			for _, term := range []Term{triple.S, triple.P, triple.O} {
				switch term.Kind {
				case IRI, Blank, Literal:
				default:
					t.Fatalf("decoded term with invalid kind %v in %q", term.Kind, src)
				}
			}
		}
	})
}
