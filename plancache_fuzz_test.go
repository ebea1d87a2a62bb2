package sparqluo

import (
	"strings"
	"testing"

	"sparqluo/internal/sparql"
)

// FuzzPlanCacheKey holds the plan-cache key to the parser: texts with
// one key are one query — all rejected, or parsed to queries that print
// alike — so no text can be answered from another query's entry, and a
// key is its own key and the query of its text. That one key means one
// token stream, and the reverse, is sparql.FuzzCanonicalText's to hold,
// where tokens can be seen; here the second text and respellings of the
// first are what may share a key. The seeds sit on the comment rule
// ('#' ends a variable, a language tag, a literal and punctuation, but
// is content inside a prefixed name, a ^^datatype name and, invalidly,
// a number) and on what the lexer folds: blanks, keyword case, sigils,
// escapes.
func FuzzPlanCacheKey(f *testing.F) {
	for _, s := range [][2]string{
		{"PREFIX ex: <http://ex.org/> SELECT * WHERE { ?x ex:p#a ?y }", "PREFIX ex: <http://ex.org/> SELECT * WHERE { ?x ex:p#b ?y }"},
		{"PREFIX xsd: <http://x/> SELECT * WHERE { ?x ?p \"1\"^^xsd:int#x }", "PREFIX xsd: <http://x/> SELECT * WHERE { ?x ?p \"1\"^^xsd:int }"},
		{"SELECT * WHERE { ?x#c\n ?p ?y }", "select*where{$x$p$y}"},
		{"SELECT * WHERE { ?s ?p \"a\"@en#c\n }", "SELECT * WHERE { ?s ?p \"a\" @en }"},
		{"SELECT * WHERE { ?s ?p ?o } LIMIT 10#c", "SELECT * WHERE { ?s ?p ?o } LIMIT 10"},
		{"PREFIX : <http://ex.org/> SELECT * WHERE { ?x:p#a ?y }", "PREFIX : <http://ex.org/> SELECT * WHERE { ?x :p ?y }"},
		{"SELECT * WHERE { ?s ?p \"a\\tb\" . # note\n ?s <http://e/p#f> \"x # y\"@en-GB }", "SELECT\v* WHERE { ?s ?p \"a\tb\" .\f?s <http://e/p#f> \"x # y\"@en-GB }"},
		{"SELECT{\"\"^^0", "SELECT\xa0*"}, // once a parser panic: a datatype word without a colon
		{"SELECT DISTINCT ?s WHERE { { ?s a <c> } UNION { ?s ?p \"1\"^^<http://e/int> } OPTIONAL { ?s ?q ?o } } ORDER BY DESC ?s OFFSET 2", ""},
		{"SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) ASC(?o)", "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC ?s ASC ?o"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		key := sparql.CanonicalText(a)
		q, err := sparql.Parse(a)
		for _, b := range []string{
			key, b, strings.ToLower(a), strings.ReplaceAll(a, "?", "$"),
			strings.ReplaceAll(a, " ", "\f"), strings.ReplaceAll(a, " ", "#\n"),
		} {
			kb := sparql.CanonicalText(b)
			if b == key && kb != key {
				t.Fatalf("key of %q is not its own key: %q -> %q", a, key, kb)
			}
			if kb != key {
				continue
			}
			bq, berr := sparql.Parse(b)
			if (err == nil) != (berr == nil) {
				t.Fatalf("%q and %q share the key %q; one parses with error %v, the other with %v", a, b, key, err, berr)
			}
			if err == nil && q.String() != bq.String() {
				t.Fatalf("%q and %q share the key %q; one is the query %s, the other %s", a, b, key, q, bq)
			}
		}
	})
}
