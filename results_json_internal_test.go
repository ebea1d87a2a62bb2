package sparqluo

import (
	"encoding/json"
	"strings"
	"testing"

	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

// jsonStringCases are the tricky inputs of the string escaper: quotes,
// backslashes, every named and unnamed control character, HTML-significant
// bytes, U+2028/U+2029, multi-byte UTF-8 and invalid UTF-8. They seed
// FuzzWriteJSONString and FuzzJSONCellFastPath.
var jsonStringCases = []string{
	"",
	"plain ascii",
	`quote " and backslash \`,
	"newline\n tab\t cr\r",
	"control \x00\x01\x1f",
	"backspace \b and form feed \f",
	"html <b>&amp;</b>",
	"line sep \u2028 and para sep \u2029",
	"héllo wörld — ünïcode",
	"日本語テキスト",
	"invalid \xff\xfe utf8 \xc3\x28 tail",
	"mixed \u2028\xffx\u2029",
	"replacement char \ufffd itself, DEL \x7f",
	strings.Repeat("a\u2028b\"c", 50),
}

// checkJSONString holds the escaper to encoding/json's (HTML-escaping)
// encoder, byte for byte.
func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONString(nil, s); string(got) != string(want) {
		t.Errorf("escape mismatch for %q:\ngot:  %s\nwant: %s", s, got, want)
	}
}

// TestWriteJSONStringMatchesEncodingJSON differentially checks the
// zero-allocation string escaper against encoding/json over
// jsonStringCases.
func TestWriteJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range jsonStringCases {
		checkJSONString(t, s)
	}
}

// FuzzWriteJSONString is the same differential over arbitrary strings.
func FuzzWriteJSONString(f *testing.F) {
	for _, s := range jsonStringCases {
		f.Add(s)
	}
	f.Fuzz(checkJSONString)
}

// FuzzJSONCellFastPath checks that a cell's JSON is the same bytes
// whichever path writes it: for any term of any kind, appendJSONCell
// (the raw copy when the dictionary marks the term plain) equals
// appendJSONTerm of the decoded term, and the plain bit is set exactly
// when escaping would leave the value and the tag or datatype as they
// stand.
func FuzzJSONCellFastPath(f *testing.F) {
	for i, s := range jsonStringCases {
		f.Add(uint8(i), s, "en")
		f.Add(uint8(i), "v", s)
	}
	f.Fuzz(func(t *testing.T, kind uint8, value, extra string) {
		var tm rdf.Term
		switch kind % 5 {
		case 0:
			tm = rdf.NewIRI(value)
		case 1:
			tm = rdf.NewBlank(value)
		case 2:
			tm = rdf.NewLiteral(value)
		case 3:
			tm = rdf.NewLangLiteral(value, extra)
		default:
			tm = rdf.NewTypedLiteral(value, extra)
		}
		d := store.NewDict()
		id := d.Encode(tm)
		terms := d.Terms()

		if got, want := appendJSONCell(nil, &terms, id), appendJSONTerm(nil, tm); string(got) != string(want) {
			t.Errorf("cell of %#v:\nfast: %s\nslow: %s", tm, got, want)
		}

		_, v, x, plain := terms.Cell(id)
		verbatim := func(s string) bool { return string(appendJSONString(nil, s)) == `"`+s+`"` }
		if want := verbatim(v) && verbatim(x); plain != want {
			t.Errorf("plain bit of %#v = %v, want %v", tm, plain, want)
		}
	})
}
