package rdf

import (
	"bufio"
	"fmt"
	"io"
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

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
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

// parsePrefix handles "@prefix pfx: <iri> ." lines.
func (d *Decoder) parsePrefix(line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "@prefix"))
	rest = strings.TrimSuffix(strings.TrimSpace(rest), ".")
	rest = strings.TrimSpace(rest)
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return d.errf("malformed @prefix directive")
	}
	name := strings.TrimSpace(rest[:colon])
	iri := strings.TrimSpace(rest[colon+1:])
	if !strings.HasPrefix(iri, "<") || !strings.HasSuffix(iri, ">") {
		return d.errf("malformed @prefix IRI %q", iri)
	}
	d.prefixes[name] = iri[1 : len(iri)-1]
	return nil
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
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return p.prefixedName()
	}
}

func (p *termParser) iri() (Term, error) {
	end := strings.IndexByte(p.s[p.i:], '>')
	if end < 0 {
		return Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.s[p.i+1 : p.i+end]
	p.i += end + 1
	return NewIRI(iri), nil
}

func (p *termParser) blank() (Term, error) {
	if !strings.HasPrefix(p.s[p.i:], "_:") {
		return Term{}, fmt.Errorf("malformed blank node")
	}
	p.i += 2
	start := p.i
	for p.i < len(p.s) && !isTermBreak(p.s[p.i]) {
		p.i++
	}
	if p.i == start {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	return NewBlank(p.s[start:p.i]), nil
}

// literal parses a quoted literal body, decoding every N-Triples ECHAR
// (\t \b \n \r \f \" \' \\) and UCHAR (\uXXXX, \UXXXXXXXX) escape.
func (p *termParser) literal() (Term, error) {
	p.i++ // opening quote
	var b strings.Builder
	for p.i < len(p.s) {
		c := p.s[p.i]
		if c == '\\' {
			if p.i+1 >= len(p.s) {
				return Term{}, fmt.Errorf("dangling escape")
			}
			esc := p.s[p.i+1]
			p.i += 2
			switch esc {
			case 't':
				b.WriteByte('\t')
			case 'b':
				b.WriteByte('\b')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'f':
				b.WriteByte('\f')
			case '"', '\'', '\\':
				b.WriteByte(esc)
			case 'u', 'U':
				n := 4
				if esc == 'U' {
					n = 8
				}
				r, err := p.uchar(n)
				if err != nil {
					return Term{}, err
				}
				b.WriteRune(r)
			default:
				return Term{}, fmt.Errorf("unknown escape \\%c", esc)
			}
			continue
		}
		if c == '"' {
			p.i++
			return p.literalSuffix(b.String())
		}
		b.WriteByte(c)
		p.i++
	}
	return Term{}, fmt.Errorf("unterminated literal")
}

// uchar decodes the n hex digits of a \u or \U escape at p.i. A
// surrogate or a code point above U+10FFFF is an error: neither is a
// character.
func (p *termParser) uchar(n int) (rune, error) {
	if p.i+n > len(p.s) {
		return 0, fmt.Errorf("truncated \\u escape")
	}
	var r uint32
	for _, c := range []byte(p.s[p.i : p.i+n]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, fmt.Errorf("bad hex digit %q in \\u escape", c)
		}
		r = r<<4 | uint32(c)
	}
	if r > unicode.MaxRune || 0xD800 <= r && r <= 0xDFFF {
		return 0, fmt.Errorf("escape %q is not a character", p.s[p.i-2:p.i+n])
	}
	p.i += n
	return rune(r), nil
}

func (p *termParser) literalSuffix(lex string) (Term, error) {
	if p.i < len(p.s) && p.s[p.i] == '@' {
		p.i++
		start := p.i
		for p.i < len(p.s) && !isTermBreak(p.s[p.i]) {
			p.i++
		}
		if p.i == start {
			return Term{}, fmt.Errorf("empty language tag")
		}
		return NewLangLiteral(lex, p.s[start:p.i]), nil
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
	start := p.i
	for p.i < len(p.s) && !isTermBreak(p.s[p.i]) {
		p.i++
	}
	tok := p.s[start:p.i]
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

func isTermBreak(c byte) bool {
	return c == ' ' || c == '\t'
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
	_, e.err = e.w.WriteString(t.String())
	if e.err == nil {
		e.err = e.w.WriteByte('\n')
	}
	return e.err
}

// Flush writes any buffered output.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}
