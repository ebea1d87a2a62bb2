package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// ParseError describes a syntax error in an N-Triples document.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // human-readable description
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Decoder reads triples from an N-Triples document. It also accepts
// Turtle-style @prefix directives and prefixed names (pfx:local), which the
// synthetic data generators use to keep files small.
type Decoder struct {
	scan     *bufio.Scanner
	line     int
	prefixes map[string]string
}

// maxLine bounds the bytes of a line the Decoder reads, its newline
// included.
const maxLine = 16 << 20

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	return &Decoder{scan: sc, prefixes: map[string]string{}}
}

// Decode returns the next triple, or io.EOF when the input is exhausted.
func (d *Decoder) Decode() (Triple, error) {
	for d.scan.Scan() {
		d.line++
		line := strings.TrimSpace(d.scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "@prefix") {
			if err := d.parsePrefix(line); err != nil {
				return Triple{}, err
			}
			continue
		}
		return d.parseTripleLine(line)
	}
	if err := d.scan.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

func (d *Decoder) errf(format string, args ...any) error {
	return &ParseError{Line: d.line, Msg: fmt.Sprintf(format, args...)}
}

// parsePrefix handles "@prefix pfx: <iri> ." lines. The IRI is read
// as any other (ReadIRI), and what follows it may only be the '.', blanks
// and a '#' comment, so a malformed directive fails on its own line.
func (d *Decoder) parsePrefix(line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "@prefix"))
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return d.errf("malformed @prefix directive")
	}
	name := strings.TrimSpace(rest[:colon])
	rest = strings.TrimLeft(rest[colon+1:], " \t")
	if !strings.HasPrefix(rest, "<") {
		return d.errf("malformed @prefix IRI %q", rest)
	}
	iri, n, err := ReadIRI(rest)
	if err != nil {
		return d.errf("@prefix IRI: %v", err)
	}
	if tail := strings.TrimLeft(rest[n:], " \t"); !strings.HasPrefix(tail, ".") || !endOfLine(tail[1:]) {
		return d.errf("expected '.' after @prefix IRI, got %q", tail)
	}
	d.prefixes[name] = iri
	return nil
}

// endOfLine reports whether rest, what follows a statement's '.', holds
// nothing but blanks and a '#' comment.
func endOfLine(rest string) bool {
	rest = strings.TrimLeft(rest, " \t")
	return rest == "" || rest[0] == '#'
}

func (d *Decoder) parseTripleLine(line string) (Triple, error) {
	p := &termParser{s: line, prefixes: d.prefixes}
	s, err := p.term()
	if err != nil {
		return Triple{}, d.errf("subject: %v", err)
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, d.errf("predicate: %v", err)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, d.errf("object: %v", err)
	}
	p.skipSpace()
	if !p.eat('.') {
		return Triple{}, d.errf("expected terminating '.'")
	}
	if !endOfLine(p.s[p.i:]) {
		return Triple{}, d.errf("unexpected %q after terminating '.'", p.s[p.i:])
	}
	t := Triple{S: s, P: pr, O: o}
	if !t.Valid() {
		return Triple{}, d.errf("invalid triple %s", t)
	}
	return t, nil
}

// termParser parses RDF terms out of a single line.
type termParser struct {
	s        string
	i        int
	prefixes map[string]string
}

func (p *termParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *termParser) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *termParser) term() (Term, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		iri, n, err := ReadIRI(p.s[p.i:])
		p.i += n
		return NewIRI(iri), err
	case '_':
		return p.blank()
	case '"':
		body, n, err := ScanString(p.s[p.i:])
		if err != nil {
			return Term{}, err
		}
		p.i += n
		return p.literalSuffix(Unescape(body))
	default:
		return p.prefixedName()
	}
}

func (p *termParser) blank() (Term, error) {
	if !strings.HasPrefix(p.s[p.i:], "_:") {
		return Term{}, fmt.Errorf("malformed blank node")
	}
	p.i += 2
	label := p.token()
	if label == "" {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	return NewBlank(label), nil
}

// token scans a blank label, language tag or prefixed name: up to the
// next blank, except that a final '.' followed by nothing but blanks or
// a '#' comment is the line's terminator.
func (p *termParser) token() string {
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != ' ' && p.s[p.i] != '\t' {
		p.i++
	}
	if p.i > start && p.s[p.i-1] == '.' && endOfLine(p.s[p.i:]) {
		p.i--
	}
	return p.s[start:p.i]
}

func (p *termParser) literalSuffix(lex string) (Term, error) {
	if p.i < len(p.s) && p.s[p.i] == '@' {
		p.i++
		lang := p.token()
		if lang == "" {
			return Term{}, fmt.Errorf("empty language tag")
		}
		return NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.s[p.i:], "^^") {
		p.i += 2
		dt, err := p.term()
		if err != nil {
			return Term{}, fmt.Errorf("datatype: %v", err)
		}
		if dt.Kind != IRI {
			return Term{}, fmt.Errorf("datatype must be an IRI")
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}

// prefixedName parses pfx:local using the declared @prefix table.
func (p *termParser) prefixedName() (Term, error) {
	tok := p.token()
	colon := strings.Index(tok, ":")
	if colon < 0 {
		return Term{}, fmt.Errorf("unrecognized token %q", tok)
	}
	base, ok := p.prefixes[tok[:colon]]
	if !ok {
		return Term{}, fmt.Errorf("undeclared prefix %q", tok[:colon])
	}
	return NewIRI(base + tok[colon+1:]), nil
}

// ReadIRI reads the IRI at the start of s, from its '<' to the first
// '>', and returns what lies between them and the bytes read. Escapes
// in an IRI are kept as written.
func ReadIRI(s string) (iri string, n int, err error) {
	end := strings.IndexByte(s, '>')
	if end < 0 {
		return "", 0, fmt.Errorf("unterminated IRI")
	}
	return s[1:end], end + 1, nil
}

// ScanString reads the string at the start of s, from its opening '"'
// to the closing one, and returns its body as written and the bytes
// read. Every escape in the body is checked, none is decoded: Unescape
// decodes a body ScanString accepted.
func ScanString(s string) (body string, n int, err error) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return s[1:i], i + 1, nil
		case '\\':
			_, m, err := DecodeEscape(s[i:])
			if err != nil {
				return "", 0, err
			}
			i += m - 1
		}
	}
	return "", 0, fmt.Errorf("unterminated literal")
}

// Unescape returns the value of a string body ScanString accepted. It
// allocates only when the body holds an escape.
func Unescape(body string) string {
	i := strings.IndexByte(body, '\\')
	if i < 0 {
		return body
	}
	var b strings.Builder
	b.Grow(len(body)) // an escape is longer than what it decodes to
	for ; i >= 0; i = strings.IndexByte(body, '\\') {
		r, n, _ := DecodeEscape(body[i:])
		b.WriteString(body[:i])
		b.WriteRune(r)
		body = body[i+n:]
	}
	b.WriteString(body)
	return b.String()
}

// DecodeEscape decodes the escape at the start of s and returns the
// rune it stands for and its length: an ECHAR (\t \b \n \r \f \" \' \\)
// or a UCHAR (\uXXXX, \UXXXXXXXX) naming a character, so neither a
// surrogate nor a code point above U+10FFFF.
func DecodeEscape(s string) (r rune, n int, err error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("dangling escape")
	}
	c := s[1]
	if i := strings.IndexByte(`tbnrf"'\`, c); i >= 0 {
		return rune("\t\b\n\r\f\"'\\"[i]), 2, nil
	}
	u := strings.IndexByte("uU", c)
	if u < 0 {
		return 0, 0, fmt.Errorf("unknown escape %q", s[:2])
	}
	if n = 6 + 4*u; len(s) < n { // \uXXXX or \UXXXXXXXX
		return 0, 0, fmt.Errorf("truncated \\%c escape", c)
	}
	v, err := strconv.ParseUint(s[2:n], 16, 32)
	if err != nil || v > unicode.MaxRune || 0xD800 <= v && v <= 0xDFFF {
		return 0, 0, fmt.Errorf("escape %q is not a character", s[:n])
	}
	return rune(v), n, nil
}

// Escape returns the letter of the ECHAR the writer spells the byte c
// with inside a string, or 0 when c is written as it is. Only '"', '\\',
// LF, CR and TAB are escaped, so a string's spelling keeps every other
// byte — invalid UTF-8 included — as it is.
func Escape(c byte) byte { return echar[c] }

var echar = [256]byte{'"': '"', '\\': '\\', '\n': 'n', '\r': 'r', '\t': 't'}

// AppendString appends s to dst as the body of an N-Triples string.
func AppendString(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if e := Escape(s[i]); e != 0 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', e)
			start = i + 1
		}
	}
	return append(dst, s[start:]...)
}

// AppendTerm appends the N-Triples spelling of t to dst.
func AppendTerm(dst []byte, t Term) []byte {
	switch t.Kind {
	case IRI:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case Blank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	case Literal:
		dst = append(dst, '"')
		dst = AppendString(dst, t.Value)
		dst = append(dst, '"')
		if t.Lang != "" {
			dst = append(dst, '@')
			return append(dst, t.Lang...)
		}
		if t.Datatype != "" {
			dst = append(dst, "^^<"...)
			dst = append(dst, t.Datatype...)
			return append(dst, '>')
		}
		return dst
	}
	return fmt.Appendf(dst, "?!badterm(%d,%q)", t.Kind, t.Value)
}

// AppendTriple appends t to dst as an N-Triples line, without its
// newline.
func AppendTriple(dst []byte, t Triple) []byte {
	dst = AppendTerm(dst, t.S)
	dst = append(dst, ' ')
	dst = AppendTerm(dst, t.P)
	dst = append(dst, ' ')
	dst = AppendTerm(dst, t.O)
	return append(dst, " ."...)
}

// ParseAll reads every triple from r, returning them as a slice.
func ParseAll(r io.Reader) ([]Triple, error) {
	d := NewDecoder(r)
	var out []Triple
	for {
		t, err := d.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// Encoder writes triples as N-Triples lines.
type Encoder struct {
	w   *bufio.Writer
	buf []byte // the line being written, reused
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w)}
}

// Encode writes one triple. The first error encountered is sticky.
func (e *Encoder) Encode(t Triple) error {
	if e.err != nil {
		return e.err
	}
	e.buf = append(AppendTriple(e.buf[:0], t), '\n')
	_, e.err = e.w.Write(e.buf)
	return e.err
}

// Flush writes any buffered output.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}
