package rdf

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicTriples(t *testing.T) {
	const doc = `
# a comment
<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .
<http://ex.org/s> <http://ex.org/p> "plain" .
<http://ex.org/s> <http://ex.org/p> "hello"@en .
<http://ex.org/s> <http://ex.org/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://ex.org/p> _:b1 .
`
	ts, err := ParseAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 5 {
		t.Fatalf("got %d triples, want 5", len(ts))
	}
	if ts[1].O.Value != "plain" || ts[1].O.Kind != Literal {
		t.Errorf("plain literal: %+v", ts[1].O)
	}
	if ts[2].O.Lang != "en" {
		t.Errorf("lang literal: %+v", ts[2].O)
	}
	if ts[3].O.Datatype != "http://www.w3.org/2001/XMLSchema#integer" {
		t.Errorf("typed literal: %+v", ts[3].O)
	}
	if !ts[4].S.IsBlank() || ts[4].S.Value != "b0" {
		t.Errorf("blank subject: %+v", ts[4].S)
	}
}

func TestParsePrefixes(t *testing.T) {
	const doc = `
@prefix ex: <http://ex.org/> .
ex:s ex:p ex:o .
ex:s ex:p "x" .
`
	ts, err := ParseAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d triples, want 2", len(ts))
	}
	if ts[0].S.Value != "http://ex.org/s" {
		t.Errorf("prefix expansion: %q", ts[0].S.Value)
	}
}

func TestParseEscapes(t *testing.T) {
	const doc = `<http://e/s> <http://e/p> "a\"b\\c\nd\te" .`
	ts, err := ParseAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if want := "a\"b\\c\nd\te"; ts[0].O.Value != want {
		t.Errorf("escapes: %q, want %q", ts[0].O.Value, want)
	}
}

// TestParseLiteralEscapes: every ECHAR and UCHAR escape decodes, and a
// \u escape naming a surrogate or a code point past U+10FFFF is an error.
func TestParseLiteralEscapes(t *testing.T) {
	cases := []struct {
		body string // between the quotes
		want string // decoded value; "" with bad set means a parse error
		bad  bool
	}{
		{`\t\b\n\r\f`, "\t\b\n\r\f", false},
		{`\"\'\\`, `"'\`, false},
		{`a\u0000`, "a\x00", false},
		{`\u00e9\u00E9`, "éé", false},
		{`\U0001F600`, "\U0001F600", false},
		{`\U0010FFFF`, "\U0010FFFF", false},
		{`\uD7FF\uE000`, "\uD7FF\uE000", false},
		{`\uD800`, "", true},
		{`\uDFFF`, "", true},
		{`\U0000D834`, "", true},
		{`\U00110000`, "", true},
		{`\UFFFFFFFF`, "", true},
		{`\u12`, "", true},
		{`\u12g4`, "", true},
		{`\x41`, "", true},
	}
	for _, tc := range cases {
		ts, err := ParseAll(strings.NewReader(`<http://e/s> <http://e/p> "` + tc.body + `" .`))
		switch {
		case tc.bad && err == nil:
			t.Errorf("%s: parsed to %q, want an error", tc.body, ts[0].O.Value)
		case !tc.bad && err != nil:
			t.Errorf("%s: %v", tc.body, err)
		case !tc.bad && ts[0].O.Value != tc.want:
			t.Errorf("%s: decoded %q, want %q", tc.body, ts[0].O.Value, tc.want)
		}
	}
}

// TestEncodeParseControlAndNonBMP: a literal holding NUL, a backspace and
// a rune outside the BMP survives the encoder and the parser, in every
// literal form.
func TestEncodeParseControlAndNonBMP(t *testing.T) {
	const v = "a\x00b\bc\U0001F600"
	in := []Triple{
		{S: NewIRI("http://e/s"), P: NewIRI("http://e/p"), O: NewLiteral(v)},
		{S: NewIRI("http://e/s"), P: NewIRI("http://e/p"), O: NewLangLiteral(v, "en")},
		{S: NewIRI("http://e/s"), P: NewIRI("http://e/p"), O: NewTypedLiteral(v, "http://e/dt")},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, tr := range in {
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ParseAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("parsed %d triples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("triple %d: parsed %v, want %v", i, out[i], in[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"missing dot", `<http://e/s> <http://e/p> <http://e/o>`},
		{"literal subject", `"x" <http://e/p> <http://e/o> .`},
		{"unterminated IRI", `<http://e/s <http://e/p> <http://e/o> .`},
		{"unterminated literal", `<http://e/s> <http://e/p> "x .`},
		{"undeclared prefix", `ex:s ex:p ex:o .`},
		{"bad escape", `<http://e/s> <http://e/p> "\q" .`},
		{"garbage", `hello world foo .`},
		{"text after the dot", `<http://e/s> <http://e/p> <http://e/o> . garbage here`},
		{"term after the dot", `<http://e/s> <http://e/p> <http://e/o> .<http://e/x> .`},
		{"'>' inside a prefix IRI", "@prefix ex: <http://x> y> .\nex:s ex:p ex:o ."},
		{"text after a prefix IRI", "@prefix ex: <http://x/> . y\nex:s ex:p ex:o ."},
		{"prefix without a dot", "@prefix ex: <http://x/>\nex:s ex:p ex:o ."},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseAll(strings.NewReader(tc.doc))
			if err == nil {
				t.Errorf("want parse error for %q", tc.doc)
			}
			var pe *ParseError
			if err != nil {
				if ok := asParseError(err, &pe); !ok {
					t.Errorf("error should be *ParseError, got %T", err)
				} else if pe.Line != 1 {
					t.Errorf("line = %d, want 1", pe.Line)
				}
			}
		})
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

func TestTripleValid(t *testing.T) {
	valid := Triple{S: NewIRI("s"), P: NewIRI("p"), O: NewLiteral("x")}
	if !valid.Valid() {
		t.Error("IRI-pred triple should be valid")
	}
	bad1 := Triple{S: NewLiteral("x"), P: NewIRI("p"), O: NewIRI("o")}
	if bad1.Valid() {
		t.Error("literal subject should be invalid")
	}
	bad2 := Triple{S: NewIRI("s"), P: NewLiteral("p"), O: NewIRI("o")}
	if bad2.Valid() {
		t.Error("literal predicate should be invalid")
	}
	s, p := NewIRI("http://e/s"), NewIRI("http://e/p")
	long := strings.Repeat("x", maxLine)
	for _, tc := range []struct {
		tr   Triple
		want bool
	}{
		{Triple{S: NewIRI("http://ex/a>b"), P: p, O: NewLiteral("x")}, false},
		{Triple{S: s, P: NewIRI("http://e/p\nq"), O: NewLiteral("x")}, false},
		{Triple{S: s, P: p, O: NewIRI("a\nb")}, false},
		{Triple{S: NewBlank("a b"), P: p, O: NewLiteral("x")}, false},
		{Triple{S: s, P: p, O: NewBlank("a\tb")}, false},
		{Triple{S: s, P: p, O: NewBlank("")}, false},
		{Triple{S: s, P: p, O: NewLangLiteral("x", "en us")}, false},
		{Triple{S: s, P: p, O: NewTypedLiteral("x", "http://e/dt>")}, false},
		{Triple{S: s, P: p, O: Term{Kind: Literal, Value: "x", Lang: "en", Datatype: "http://e/dt"}}, false},
		{Triple{S: Term{Kind: IRI, Value: "http://e/s", Lang: "en"}, P: p, O: NewLiteral("x")}, false},
		{Triple{S: s, P: p, O: Term{Kind: 3, Value: "x"}}, false},
		{Triple{S: s, P: p, O: NewLiteral(long)}, false}, // a line the decoder cannot buffer
		{Triple{S: s, P: p, O: NewLiteral(long[:maxLine/2])}, true},
		{Triple{S: s, P: p, O: NewLiteral("a\xff\"b\n\\")}, true},
		{Triple{S: NewBlank("b."), P: p, O: NewBlank("b.")}, true},
		{Triple{S: s, P: p, O: NewLangLiteral("x", "en.")}, true},
		{Triple{S: NewIRI(""), P: NewIRI("a<b"), O: NewIRI("#x y")}, true},
	} {
		if got := tc.tr.Valid(); got != tc.want {
			t.Errorf("Valid(%q) = %v, want %v", tc.tr.String(), got, tc.want)
		}
		if len(tc.tr.O.Value) > 1000 {
			continue
		}
		back, err := ParseAll(strings.NewReader(tc.tr.String()))
		if readsBack := err == nil && len(back) == 1 && back[0] == tc.tr; readsBack != tc.want {
			t.Errorf("%q reads back: %v, want %v", tc.tr.String(), readsBack, tc.want)
		}
	}
}

// TestParseTerminator: a final '.' of a blank label, language tag or
// prefixed name ends the line when only blanks or a comment follow it;
// otherwise it stays part of the token, as it always did.
func TestParseTerminator(t *testing.T) {
	const pre = "@prefix ex: <http://e/> .\n<http://s> <http://p> "
	for _, tc := range []struct {
		obj  string // the object and what follows it on its line
		want Term   // zero when the line is an error
	}{
		{`"x"@en.`, NewLangLiteral("x", "en")},
		{`_:b.`, NewBlank("b")},
		{`ex:o.`, NewIRI("http://e/o")},
		{`"1"^^ex:int.`, NewTypedLiteral("1", "http://e/int")},
		{"_:b.\t# comment", NewBlank("b")},
		{`_:b. # comment`, NewBlank("b")},
		{`"x"@en. .`, NewLangLiteral("x", "en.")},
		{`_:b. .`, NewBlank("b.")},
		{`_:b.. .`, NewBlank("b..")},
		{`ex:o. . # c`, NewIRI("http://e/o.")},
		{`_:b .`, NewBlank("b")},
		{`_:b.#c`, Term{}},
		{`_:.`, Term{}},
		{`"x"@.`, Term{}},
		{`_:b. x`, Term{}},
		{`"x" . garbage`, Term{}},
		{`"x" .y`, Term{}},
		{`<http://o> . .`, Term{}},
		{`<http://o> .# c`, NewIRI("http://o")},
	} {
		ts, err := ParseAll(strings.NewReader(pre + tc.obj))
		switch {
		case tc.want == Term{}:
			if err == nil {
				t.Errorf("%s: parsed %v, want an error", tc.obj, ts)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.obj, err)
		case ts[0].O != tc.want:
			t.Errorf("%s: object %#v, want %#v", tc.obj, ts[0].O, tc.want)
		}
	}
}

func TestTermKeyUniqueAcrossKinds(t *testing.T) {
	terms := []Term{
		NewIRI("x"), NewLiteral("x"), NewBlank("x"),
		NewLangLiteral("x", "en"), NewTypedLiteral("x", "dt"),
	}
	seen := map[string]Term{}
	for _, tm := range terms {
		if prev, ok := seen[tm.String()]; ok {
			t.Errorf("spelling collision between %#v and %#v", prev, tm)
		}
		seen[tm.String()] = tm
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://e/x"), "<http://e/x>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("1", "http://dt"), `"1"^^<http://dt>`},
		{NewBlank("b"), "_:b"},
		{NewLiteral("a\"b"), `"a\"b"`},
		// Bytes are written as they are, invalid UTF-8 too, escaped or not.
		{NewLiteral("a\xff\"b\\\n\r\t\b"), "\"a\xff\\\"b\\\\\\n\\r\\t\b\""},
		{NewLiteral("caf\u00e9\x80"), "\"caf\u00e9\x80\""},
	}
	for _, tc := range cases {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

// randomTerm produces terms with interesting characters for round-trips.
func randomTerm(rng *rand.Rand, subjectPos bool) Term {
	alphabet := []string{"a", "b", "x1", "ü", "tab\tchar", "nl\nline", `quo"te`, `back\slash`}
	pick := func() string { return alphabet[rng.Intn(len(alphabet))] }
	switch k := rng.Intn(3); {
	case k == 0 || subjectPos && k == 2:
		return NewIRI("http://ex.org/" + strings.Map(safeIRIChar, pick()))
	case k == 1:
		return NewBlank("b" + strings.Map(safeLabelChar, pick()))
	default:
		switch rng.Intn(3) {
		case 0:
			return NewLiteral(pick())
		case 1:
			return NewLangLiteral(pick(), "en-US")
		default:
			return NewTypedLiteral(pick(), "http://www.w3.org/2001/XMLSchema#string")
		}
	}
}

func safeIRIChar(r rune) rune {
	if r == '>' || r == ' ' || r == '\t' || r == '\n' || r == '"' || r == '\\' {
		return '_'
	}
	return r
}

func safeLabelChar(r rune) rune {
	if r == ' ' || r == '\t' || r == '\n' || r == '"' || r == '\\' {
		return '_'
	}
	return r
}

// TestQuickEncodeDecodeRoundTrip: serialize-then-parse is the identity on
// random triples.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var in []Triple
		for i := 0; i < 1+rng.Intn(10); i++ {
			in = append(in, Triple{
				S: randomTerm(rng, true),
				P: NewIRI("http://ex.org/p"),
				O: randomTerm(rng, false),
			})
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		for _, tr := range in {
			if err := enc.Encode(tr); err != nil {
				return false
			}
		}
		if err := enc.Flush(); err != nil {
			return false
		}
		out, err := ParseAll(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if !out[i].S.Equal(in[i].S) || !out[i].P.Equal(in[i].P) || !out[i].O.Equal(in[i].O) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecoderEOF(t *testing.T) {
	d := NewDecoder(strings.NewReader(""))
	if _, err := d.Decode(); err != io.EOF {
		t.Errorf("empty input: want io.EOF, got %v", err)
	}
}

func TestEncoderStickyError(t *testing.T) {
	enc := NewEncoder(failWriter{})
	tr := Triple{S: NewIRI("s"), P: NewIRI("p"), O: NewIRI("o")}
	_ = enc.Encode(tr)
	if err := enc.Flush(); err == nil {
		t.Error("want sticky error from failing writer")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
