package sparql

import (
	"slices"
	"strings"
	"testing"
)

// sameTokens reports whether a and b lex to the same token stream
// (positions aside); ok is false when either is rejected.
func sameTokens(a, b string) (same, ok bool) {
	ta, erra := lex(a)
	tb, errb := lex(b)
	if erra != nil || errb != nil {
		return false, false
	}
	return slices.EqualFunc(ta, tb, func(x, y token) bool {
		x.pos, y.pos = 0, 0
		return x == y
	}), true
}

func TestCanonicalText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * WHERE { ?s ?p ?o }", "SELECT * WHERE { ?s ?p ?o }"},
		{"  SELECT\t*\nWHERE  {\n?s ?p ?o\n}\n", "SELECT * WHERE { ?s ?p ?o }"},
		{"SELECT*WHERE{?s?p?o.}", "SELECT * WHERE { ?s ?p ?o . }"},
		{"", ""},
		{"   ", ""},
		// Every blank the lexer skips, and only those.
		{"SELECT\v?x\fWHERE\r{ ?x ?p ?o }", "SELECT ?x WHERE { ?x ?p ?o }"},
		{"SELECT\xa0?x", "SELECT\xa0?x"}, // not a blank: rejected, so kept as written
		// Keywords in any case; 'a', names and prefixes keep theirs.
		{"select Distinct ?X where { ?X a ex:A } order by desc ?X limit 3 offset 1",
			"SELECT DISTINCT ?X WHERE { ?X a ex:A } ORDER BY DESC ?X LIMIT 3 OFFSET 1"},
		{"order by desc( ?X )asc($y)", "ORDER BY DESC ( ?X ) ASC ( ?y )"},
		{"prefix select: <http://e/> SELECT * { ?s select:where ?o }",
			"PREFIX select: <http://e/> SELECT * { ?s select:where ?o }"},
		// Both variable sigils are one token.
		{"SELECT $x { $x ?p ?o }", "SELECT ?x { ?x ?p ?o }"},
		// Literal and IRI contents are kept: blanks and '#' are content there.
		{`{ ?s ?p "a  b" }`, `{ ?s ?p "a  b" }`},
		{`{ ?s ?p "a\"  b" }`, `{ ?s ?p "a\"  b" }`},
		{`{ ?s ?p "a # b" }`, `{ ?s ?p "a # b" }`},
		{"{ ?s <http://e/p>   ?o }", "{ ?s <http://e/p> ?o }"},
		{"{ ?s <http://e/p#frag>  ?o }", "{ ?s <http://e/p#frag> ?o }"},
		{"{ ?s <a  b> ?o }", "{ ?s <a  b> ?o }"},
		// Comments go, up to their newline, and separate tokens.
		{"SELECT * # pick all\nWHERE { ?s ?p ?o }", "SELECT * WHERE { ?s ?p ?o }"},
		{"{ ?x <http://e/p> ?y . # note\n?y <http://e/q> ?z }", "{ ?x <http://e/p> ?y . ?y <http://e/q> ?z }"},
		{"SELECT * WHERE { ?s ?p ?o } # done", "SELECT * WHERE { ?s ?p ?o }"},
		{"SELECT #c\n*", "SELECT *"},
		{"SELECT#c\n*", "SELECT#c\n*"}, // a word takes '#' as content: rejected
		// '#' starts a comment only where a token would start: a word
		// takes it as content, a variable name or language tag ends at it.
		{"{ ?x ex:p#a ?y }", "{ ?x ex:p#a ?y }"},
		{`{ ?x ?p "1"^^xsd:int#x }`, `{ ?x ?p "1"^^xsd:int#x }`},
		{`{ ?x ?p "1"^^<http://e/int>#x` + "\n}", `{ ?x ?p "1"^^<http://e/int> }`},
		{"{ ?x#c\n?p ?y }", "{ ?x ?p ?y }"},
		{"{ ?x:p#a ?y }", "{ ?x :p#a ?y }"}, // the name ends at ':', where a word starts
		{`{ ?s ?p "a"@en#c` + "\n}", `{ ?s ?p "a"@en }`},
		{`{ ?s ?p "a"@en-GB#c` + "\n}", `{ ?s ?p "a"@en-GB }`},
		{`{ ?s ?p "a"#c` + "\n}", `{ ?s ?p "a" }`},
		{"{ ?s ?p ?o }#c", "{ ?s ?p ?o }"},
		{"{ ?s ?p ?o .#c\n}", "{ ?s ?p ?o . }"},
		{"LIMIT 10#c", "LIMIT 10#c"}, // one unrecognized word, not LIMIT 10: rejected
		// Each of \n \t \r has one spelling inside a literal.
		{"{ ?s ?p \"a\tb\nc\rd\" }", `{ ?s ?p "a\tb\nc\rd" }`},
		{`{ ?s ?p "a\tb\\t\"" }`, `{ ?s ?p "a\tb\\t\"" }`},
		// Every other escape is decoded and its character written as it is.
		{`{ ?s ?p "caf\u00e9 \b\'\U0001F600" }`, "{ ?s ?p \"caf\u00e9 \b'\U0001F600\" }"},
		{`{ ?s ?p "\u000A\u0022\u005C" }`, `{ ?s ?p "\n\"\\" }`},
		// Rejected texts come back as written.
		{`{ ?s ?p "a\xb" }`, `{ ?s ?p "a\xb" }`},
		{`{  ?s ?p "unterminated`, `{  ?s ?p "unterminated`},
		{`{ ?s ?p "x"  @en }`, `{ ?s ?p "x"  @en }`},
	}
	for _, c := range cases {
		got := CanonicalText(c.in)
		if got != c.want {
			t.Errorf("CanonicalText(%q) = %q, want %q", c.in, got, c.want)
		}
		if again := CanonicalText(got); again != got {
			t.Errorf("CanonicalText(%q) = %q is not canonical: %q", c.in, got, again)
		}
		if same, ok := sameTokens(c.in, got); ok && !same {
			t.Errorf("CanonicalText(%q) = %q lexes differently", c.in, got)
		}
	}
}

// TestCanonicalTextPairs pins, spelling against spelling, what shares a
// plan-cache entry: exactly the texts the lexer cannot tell apart.
func TestCanonicalTextPairs(t *testing.T) {
	const q = "SELECT ?x WHERE { ?x ?p ?o }"
	same := [][2]string{
		{q, "SELECT\v?x\fWHERE { ?x ?p ?o }"},
		{q, "select ?x wHeRe { ?x ?p ?o }"},
		{q, "SELECT ?x#c\nWHERE{?x?p?o}"},
		{q, "SELECT $x WHERE { $x $p $o }"},
		{`{ ?s ?p "a\tb" }`, "{ ?s ?p \"a\tb\" }"},
		{`{ ?s ?p "a\nb" }`, "{ ?s ?p \"a\nb\" }"},
		{`{ ?s ?p "a\rb" }`, "{ ?s ?p \"a\rb\" }"},
		{`{ ?s ?p "x"@en }`, `{?s?p"x"@en}`},
		{"{ ?x ex:p#a ?y }", "{?x ex:p#a ?y}"},
		{`{ ?s ?p "\u0041" }`, `{ ?s ?p "A" }`},
		{`{ ?s ?p "\'" }`, `{ ?s ?p "'" }`},
		{`{ ?s ?p "caf\u00e9\b\f" }`, "{ ?s ?p \"caf\U000000E9\b\f\" }"},
		{`{ ?s ?p "\"\\" }`, `{ ?s ?p "\u0022\u005c" }`},
	}
	for _, c := range same {
		if a, b := CanonicalText(c[0]), CanonicalText(c[1]); a != b {
			t.Errorf("one token stream, two keys: %q=%q vs %q=%q", c[0], a, c[1], b)
		}
		if eq, ok := sameTokens(c[0], c[1]); !ok || !eq {
			t.Errorf("%q and %q do not lex alike (ok=%v)", c[0], c[1], ok)
		}
	}
	distinct := [][2]string{
		{`{ ?s ?p "a  b" }`, `{ ?s ?p "a b" }`},
		// The comment swallows the rest of the flattened text.
		{"{ ?x <http://e/p> ?y . # note\n?y <http://e/q> ?z }", "{ ?x <http://e/p> ?y . # note ?y <http://e/q> ?z }"},
		{"{ ?x ex:p#a ?y }", "{ ?x ex:p#b ?y }"},
		{"{ ?x ex:p#a ?y }", "{ ?x ex:p ?y }"},
		{`{ ?x ?p "1"^^xsd:int#x }`, `{ ?x ?p "1"^^xsd:int }`},
		{"LIMIT 10#x", "LIMIT 10"},
		{`{ ?s ?p "x"@en }`, `{ ?s ?p "x" @en }`}, // a tag only right behind the quote
		{`{ ?s ?p "x"@en }`, `{ ?s ?p "x"@EN }`},
		{"{ ?s a ?o }", "{ ?s A ?o }"},
		{"SELECT ?x { ?x ?p ?o }", "SELECT ?X { ?X ?p ?o }"},
		{`{ ?s ?p "a\tb" }`, `{ ?s ?p "atb" }`},
		{`{ ?s ?p "a\\tb" }`, `{ ?s ?p "a\tb" }`},   // backslash-t vs tab
		{`{ ?s ?p "a\\nb" }`, "{ ?s ?p \"a\nb\" }"}, // backslash-n vs newline
		{`{ ?s ?p "a\"b" }`, `{ ?s ?p "a" }`},       // an escaped quote is content
		{`{ ?s ?p "\u0041" }`, `{ ?s ?p "\u0042" }`},
		// Rejected literals keep to themselves.
		{`{ ?s ?p "a\xb" }`, `{ ?s ?p "axb" }`},
		{`{ ?s ?p "a\xb" }`, `{ ?s ?p "a\\xb" }`},
		{`{ ?s ?p "a\xb" }`, `{ ?s  ?p "a\xb" }`},
		{`{ ?s ?p "unterminated`, `{ ?s ?p "unterminated"`},
		{"SELECT\xa0?x", "SELECT ?x"},
		{"SELECT?x", "SELECT ?x"},
	}
	for _, c := range distinct {
		if a, b := CanonicalText(c[0]), CanonicalText(c[1]); a == b {
			t.Errorf("%q and %q share the key %q", c[0], c[1], a)
		}
	}
}

// TestBlanksAreASCII: the bytes 0x85 and 0xA0 (NEL and NBSP in Latin-1,
// halves of other characters in UTF-8) used to be skipped as blanks.
func TestBlanksAreASCII(t *testing.T) {
	for _, src := range []string{"SELECT\xa0* { ?s ?p ?o }", "SELECT\x85* { ?s ?p ?o }", "SELECT\u00a0* { ?s ?p ?o }"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	if _, err := Parse("SELECT\v*\f{ ?s ?p ?o }"); err != nil {
		t.Errorf("\\v and \\f are blanks: %v", err)
	}
}

// TestCanonicalTextAllocs: the key is computed on every request, hit or
// miss, and costs the key string alone.
func TestCanonicalTextAllocs(t *testing.T) {
	src := "prefix ex: <http://ex.org/> # c\nselect distinct ?x $y where {\n\t?x a ex:T .\n" +
		"\t{ ?x ex:p \"a\\tb\tc\"@en } union { ?x ex:q \"1\"^^<http://e/int> } optional { ?x ex:r \"2\"^^ex:int }\n} order by desc ?x limit 10"
	if _, err := lex(src); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { CanonicalText(src) }); n != 1 {
		t.Errorf("CanonicalText allocates %.0f times, want 1", n)
	}
}

// FuzzCanonicalText: two texts get one key exactly when the lexer
// cannot tell them apart; a rejected text is its own key; a key lexes
// to the tokens of its text. Besides the second input, each text is
// held against respellings of itself, which may or may not lex alike.
func FuzzCanonicalText(f *testing.F) {
	for _, s := range [][2]string{
		{"SELECT ?x WHERE { ?x ?p ?o }", "select\v$x#c\nwhere{?x?p?o}"},
		{`{ ?s ?p "a\tb" }`, "{ ?s ?p \"a\tb\" }"},
		{`{ ?s ?p "x"@en }`, `{ ?s ?p "x" @en }`},
		{"{ ?x ex:p#a ?y }", "{ ?x ex:p#b ?y }"},
		{`{ ?x ?p "1"^^xsd:int#x }`, `{ ?x ?p "1"^^<http://e/int>#x }`},
		{`{ ?s ?p "a\xb" }`, `{ ?s ?p "a\\xb" }`},
		{"SELECT\xa0?x", "SELECT ?x"},
		{"LIMIT 10#c", "LIMIT 10 OFFSET 007"},
		{"ORDER BY DESC(?x)", "order by desc ( $x )"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ka := CanonicalText(a)
		for _, b := range []string{
			b, strings.ToLower(a), strings.ToUpper(a), strings.ReplaceAll(a, "?", "$"),
			strings.ReplaceAll(a, " ", "\f"), strings.ReplaceAll(a, "\t", `\t`), strings.ReplaceAll(a, " ", "#\n"),
		} {
			kb := CanonicalText(b)
			if same, ok := sameTokens(a, b); ok && same != (ka == kb) {
				t.Fatalf("%q and %q: same tokens %v, keys %q and %q", a, b, same, ka, kb)
			} else if !ok && a != b && ka == kb {
				t.Fatalf("%q and %q, not both lexable, share the key %q", a, b, ka)
			}
		}
		if _, err := lex(a); err != nil {
			if ka != a {
				t.Fatalf("rejected text %q has the key %q", a, ka)
			}
			return
		}
		if same, ok := sameTokens(a, ka); !ok || !same {
			t.Fatalf("key %q of %q lexes differently (ok=%v)", ka, a, ok)
		}
		if again := CanonicalText(ka); again != ka {
			t.Fatalf("key %q of %q is not its own key: %q", ka, a, again)
		}
	})
}
