package sparqluo

import (
	"bufio"
	"io"
	"unicode/utf8"

	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

// WriteJSON streams the results to w in the W3C "SPARQL 1.1 Query
// Results JSON Format" (https://www.w3.org/TR/sparql11-results-json/),
// emitting bindings row by row: no []Solution (or per-row map) is ever
// materialized, and steady-state encoding allocates nothing per row.
// WriteJSON consumes the cursor (see Results); calling it on an
// already-consumed Results returns ErrResultsConsumed without writing.
func (r *Results) WriteJSON(w io.Writer) error {
	if err := r.acquire(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<15)
	bw.WriteString(`{"head":{"vars":[`)
	for i, name := range r.names {
		if i > 0 {
			bw.WriteByte(',')
		}
		writeJSONString(bw, name)
	}
	bw.WriteString(`]},"results":{"bindings":[`)
	for ri, row := range r.res.Bag.All() {
		if ri > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('{')
		first := true
		for ci, col := range r.cols {
			id := row[col]
			if id == store.None {
				continue
			}
			if !first {
				bw.WriteByte(',')
			}
			first = false
			writeJSONString(bw, r.names[ci])
			bw.WriteByte(':')
			writeJSONTerm(bw, r.terms.Term(id))
		}
		bw.WriteByte('}')
	}
	bw.WriteString("]}}\n")
	return bw.Flush()
}

// writeJSONTerm emits one term object: {"type":...,"value":...} plus
// "xml:lang" / "datatype" when present, mirroring the W3C term mapping
// (IRIs → "uri", blank nodes → "bnode", everything else → "literal").
func writeJSONTerm(bw *bufio.Writer, t rdf.Term) {
	bw.WriteString(`{"type":`)
	switch t.Kind {
	case rdf.IRI:
		bw.WriteString(`"uri"`)
	case rdf.Blank:
		bw.WriteString(`"bnode"`)
	default:
		bw.WriteString(`"literal"`)
	}
	bw.WriteString(`,"value":`)
	writeJSONString(bw, t.Value)
	if t.Kind != rdf.IRI && t.Kind != rdf.Blank {
		if t.Lang != "" {
			bw.WriteString(`,"xml:lang":`)
			writeJSONString(bw, t.Lang)
		}
		if t.Datatype != "" {
			bw.WriteString(`,"datatype":`)
			writeJSONString(bw, t.Datatype)
		}
	}
	bw.WriteByte('}')
}

const hexDigits = "0123456789abcdef"

// writeJSONString emits s as a JSON string without allocating. The
// escape set matches encoding/json's default (HTML-escaping) encoder:
// control characters, quote and backslash; '<', '>', '&' as \u00XX;
// the JavaScript-hostile line separators U+2028/U+2029 as \u2028 and
// \u2029; and invalid UTF-8 bytes as the \ufffd replacement escape.
// Documents are therefore byte-compatible with the pre-streaming
// serializer for any given binding.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			bw.WriteString(s[start:i])
			switch c {
			case '"':
				bw.WriteString(`\"`)
			case '\\':
				bw.WriteString(`\\`)
			case '\n':
				bw.WriteString(`\n`)
			case '\r':
				bw.WriteString(`\r`)
			case '\t':
				bw.WriteString(`\t`)
			default:
				bw.WriteString(`\u00`)
				bw.WriteByte(hexDigits[c>>4])
				bw.WriteByte(hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			bw.WriteString(s[start:i])
			bw.WriteString(`\ufffd`)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			bw.WriteString(s[start:i])
			bw.WriteString(`\u202`)
			bw.WriteByte(hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	bw.WriteString(s[start:])
	bw.WriteByte('"')
}
