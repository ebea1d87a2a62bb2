package sparqluo

import (
	"testing"

	"sparqluo/internal/sparql"
)

// FuzzPlanCacheKey holds the plan-cache key to the parser: a text and
// its key are the same query — both rejected, or parsed to queries that
// print alike — so no text can be answered from another query's entry,
// and a key is its own key. The seeds sit on the comment rule: '#' ends
// a variable, a language tag, a literal and punctuation, but is content
// inside a prefixed name, a ^^datatype name and (invalidly) a number.
func FuzzPlanCacheKey(f *testing.F) {
	for _, s := range []string{
		"PREFIX ex: <http://ex.org/> SELECT * WHERE { ?x ex:p#a ?y }",
		"PREFIX xsd: <http://x/> SELECT * WHERE { ?x ?p \"1\"^^xsd:int#x }",
		"SELECT * WHERE { ?x#c\n ?p ?y }",
		"SELECT * WHERE { ?s ?p \"a\"@en#c\n }",
		"SELECT * WHERE { ?s ?p ?o } LIMIT 10#c",
		"PREFIX : <http://ex.org/> SELECT * WHERE { ?x:p#a ?y }",
		"SELECT * WHERE { ?s ?p \"a\\tb\" . # note\n ?s <http://e/p#f> \"x # y\"@en-GB }",
		"SELECT{\"\"^^0", // once a parser panic: a datatype word without a colon
		"SELECT DISTINCT ?s WHERE { { ?s a <c> } UNION { ?s ?p \"1\"^^<http://e/int> } OPTIONAL { ?s ?q ?o } } ORDER BY DESC ?s OFFSET 2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		key := normalizeQueryText(s)
		if again := normalizeQueryText(key); again != key {
			t.Fatalf("key of %q is not its own key: %q -> %q", s, key, again)
		}
		q, err := sparql.Parse(s)
		kq, kerr := sparql.Parse(key)
		if (err == nil) != (kerr == nil) {
			t.Fatalf("%q parses with error %v, its key %q with %v", s, err, key, kerr)
		}
		if err == nil && q.String() != kq.String() {
			t.Fatalf("%q is the query %s, its key %q the query %s", s, q, key, kq)
		}
	})
}
