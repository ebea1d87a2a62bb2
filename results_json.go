package sparqluo

import (
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
//
// Each column's `"name":` key is encoded once per document, and a cell
// whose term the dictionary marks plain (nothing to escape) is written
// as its kind's constant head, the raw value and the language tag or
// datatype tail: a few copies, no per-byte work. Any other term takes
// appendJSONTerm. Both spell the same bytes. The document is built in
// one buffer, handed to w every jsonFlushAt bytes; WriteJSON returns
// the first error w reports.
func (r *Results) WriteJSON(w io.Writer) error {
	if err := r.acquire(); err != nil {
		return err
	}
	// keys holds `,"name":` for every column, one after another, column
	// i's at keys[keyOff[i]:keyOff[i+1]]. A row's first cell leaves the
	// comma out, and the header's var list is the keys' `,"name"`s.
	size := 0
	for _, name := range r.names {
		size += len(name) + 4
	}
	keys := make([]byte, 0, size)
	keyOff := make([]int, 1, len(r.names)+1)
	for _, name := range r.names {
		keys = append(keys, ',')
		keys = appendJSONString(keys, name)
		keys = append(keys, ':')
		keyOff = append(keyOff, len(keys))
	}

	buf := make([]byte, 0, 2*jsonFlushAt)
	buf = append(buf, `{"head":{"vars":[`...)
	for ci := range r.names {
		k := keys[keyOff[ci] : keyOff[ci+1]-1]
		if ci == 0 {
			k = k[1:]
		}
		buf = append(buf, k...)
	}
	buf = append(buf, `]},"results":{"bindings":[`...)
	for ri, row := range r.res.Bag.All() {
		if ri > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		first := true
		for ci, col := range r.cols {
			id := row[col]
			if id == store.None {
				continue
			}
			k := keyOff[ci]
			if first {
				k, first = k+1, false
			}
			buf = append(buf, keys[k:keyOff[ci+1]]...)
			buf = appendJSONCell(buf, &r.terms, id)
		}
		buf = append(buf, '}')
		if len(buf) >= jsonFlushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "]}}\n"...)
	_, err := w.Write(buf)
	return err
}

// jsonFlushAt is the buffered size at which WriteJSON hands its bytes
// to the writer, after the row that reaches it.
const jsonFlushAt = 32 << 10

// cellHead and cellExtra are the constant parts of a plain term's JSON
// object, by record kind: the head up to the value's opening quote, and
// what stands between the value and the language tag or datatype IRI.
var (
	cellHead = [...]string{
		store.KindIRI:   `{"type":"uri","value":"`,
		store.KindBlank: `{"type":"bnode","value":"`,
		store.KindPlain: `{"type":"literal","value":"`,
		store.KindLang:  `{"type":"literal","value":"`,
		store.KindTyped: `{"type":"literal","value":"`,
	}
	cellExtra = [...]string{
		store.KindLang:  `","xml:lang":"`,
		store.KindTyped: `","datatype":"`,
	}
)

// appendJSONCell appends the JSON object of term id. A term the
// dictionary marks plain is copied into the object as it stands; any
// other is encoded by appendJSONTerm.
func appendJSONCell(dst []byte, terms *store.Terms, id store.ID) []byte {
	kind, value, extra, plain := terms.Cell(id)
	if !plain {
		return appendJSONTerm(dst, terms.Term(id))
	}
	dst = append(dst, cellHead[kind]...)
	dst = append(dst, value...)
	if extra != "" {
		dst = append(dst, cellExtra[kind]...)
		dst = append(dst, extra...)
	}
	return append(dst, '"', '}')
}

// appendJSONTerm appends one term object: {"type":...,"value":...} plus
// "xml:lang" / "datatype" when present, mirroring the W3C term mapping
// (IRIs → "uri", blank nodes → "bnode", everything else → "literal").
func appendJSONTerm(dst []byte, t rdf.Term) []byte {
	dst = append(dst, `{"type":`...)
	switch t.Kind {
	case rdf.IRI:
		dst = append(dst, `"uri"`...)
	case rdf.Blank:
		dst = append(dst, `"bnode"`...)
	default:
		dst = append(dst, `"literal"`...)
	}
	dst = append(dst, `,"value":`...)
	dst = appendJSONString(dst, t.Value)
	if t.Kind != rdf.IRI && t.Kind != rdf.Blank {
		if t.Lang != "" {
			dst = append(dst, `,"xml:lang":`...)
			dst = appendJSONString(dst, t.Lang)
		}
		if t.Datatype != "" {
			dst = append(dst, `,"datatype":`...)
			dst = appendJSONString(dst, t.Datatype)
		}
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaped exactly as
// encoding/json's default (HTML-escaping) encoder does: '"' and '\\'
// as themselves after a backslash; \b, \f, \n, \r and \t by name; every
// other control character and '<', '>', '&' as \u00xx; U+2028 and
// U+2029 as \u2028 and \u2029; and each invalid UTF-8 byte as \ufffd.
// Everything else, valid multi-byte UTF-8 included, is copied as it
// stands, one run at a time: store.JSONSafeLen finds where a run ends.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for {
		n := store.JSONSafeLen(s)
		dst = append(dst, s[:n]...)
		if s = s[n:]; s == "" {
			break
		}
		if c := s[0]; c < utf8.RuneSelf {
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			s = s[1:]
			continue
		}
		// An invalid byte, or U+2028 / U+2029 (three bytes each).
		r, size := utf8.DecodeRuneInString(s)
		if r == utf8.RuneError {
			dst = append(dst, `\ufffd`...)
		} else {
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		}
		s = s[size:]
	}
	return append(dst, '"')
}
