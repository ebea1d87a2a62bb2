package sparql

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"sparqluo/internal/rdf"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokLBrace
	tokRBrace
	tokLParen // only around an ORDER BY key: ASC(?v), DESC(?v)
	tokRParen
	tokDot
	tokStar
	tokVar     // ?name
	tokIRI     // <...>
	tokPName   // pfx:local
	tokLiteral // "..." with optional @lang / ^^dt
	tokKeyword // SELECT WHERE UNION OPTIONAL PREFIX DISTINCT ORDER BY ASC DESC LIMIT OFFSET
	tokA       // 'a' shorthand for rdf:type
	tokNumber  // bare integer (LIMIT/OFFSET argument)
)

type token struct {
	kind tokenKind
	text string // as written, except: keywords upper-cased, a variable's name, an IRI's inside, a literal's lexical form
	lang string
	dt   string // datatype, either <iri> or pname (resolved by parser)
	pos  int    // byte offset, for error messages
}

// Error is a SPARQL syntax error with a byte offset into the query string.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("sparql: at offset %d: %s", e.Pos, e.Msg) }

// keywords are matched case-insensitively and carried upper-cased.
var keywords = [...]string{
	"SELECT", "WHERE", "UNION", "OPTIONAL", "PREFIX", "DISTINCT",
	"ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET",
}

// keyword returns the upper-case spelling of the keyword word is, or "".
// Words are ASCII (isWordByte), so EqualFold is plain case folding; it
// allocates nothing, which the plan-cache key relies on.
func keyword(word string) string {
	for _, k := range keywords {
		if len(word) == len(k) && strings.EqualFold(word, k) {
			return k
		}
	}
	return ""
}

type lexer struct {
	src string
	i   int
}

// lex returns the token stream of src, ending in tokEOF.
func lex(src string) ([]token, error) {
	l := lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if t.kind == tokLiteral {
			t.text = rdf.Unescape(t.text)
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// CanonicalText returns the one spelling shared by exactly the texts
// that lex to the token stream of src: every token written one way —
// keywords upper-cased, variables with '?', a string literal's value
// spelled as N-Triples spells it (rdf.AppendString: each escape decoded,
// then only '"', '\\', LF, CR and TAB escaped) — and separated by
// single spaces. The result
// lexes to the same stream, so it is its own canonical text. A text the
// lexer rejects is returned unchanged; no canonical text equals it,
// because canonical texts lex. It is the plan-cache key, computed for
// every request: it allocates the returned string and nothing else.
func CanonicalText(src string) string {
	l := lexer{src: src}
	var b strings.Builder
	b.Grow(len(src)) // enough unless the text leaves out most optional blanks
	for {
		t, err := l.next()
		if err != nil {
			return src
		}
		if t.kind == tokEOF {
			return b.String()
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokVar:
			b.WriteByte('?')
			b.WriteString(t.text)
		case tokIRI:
			b.WriteByte('<')
			b.WriteString(t.text)
			b.WriteByte('>')
		case tokLiteral:
			b.WriteByte('"')
			for body := t.text; body != ""; {
				c, n := body[0], 1
				if c == '\\' {
					var r rune
					r, n, _ = rdf.DecodeEscape(body) // next checked it
					if r >= utf8.RuneSelf {
						b.WriteRune(r)
						body = body[n:]
						continue
					}
					c = byte(r)
				}
				if e := rdf.Escape(c); e != 0 {
					b.WriteByte('\\')
					c = e
				}
				b.WriteByte(c)
				body = body[n:]
			}
			b.WriteByte('"')
			if t.lang != "" {
				b.WriteByte('@')
				b.WriteString(t.lang)
			} else if t.dt != "" {
				b.WriteString("^^")
				b.WriteString(t.dt)
			}
		default:
			b.WriteString(t.text)
		}
	}
}

// next scans one token. A literal's text is its body as written, with
// its escapes checked but not decoded (see rdf.ScanString).
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	start := l.i
	if start >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[start]
	switch c {
	case '{':
		return l.punct(tokLBrace), nil
	case '}':
		return l.punct(tokRBrace), nil
	case '(':
		return l.punct(tokLParen), nil
	case ')':
		return l.punct(tokRParen), nil
	case '.':
		return l.punct(tokDot), nil
	case '*':
		return l.punct(tokStar), nil
	case '?', '$':
		l.i++
		name := l.takeWhile(isNameByte)
		if name == "" {
			return token{}, &Error{start, "empty variable name"}
		}
		return token{kind: tokVar, text: name, pos: start}, nil
	case '<':
		iri, n, err := rdf.ReadIRI(l.src[start:])
		if err != nil {
			return token{}, &Error{start, err.Error()}
		}
		l.i += n
		return token{kind: tokIRI, text: iri, pos: start}, nil
	case '"':
		return l.literal()
	}
	word := l.takeWhile(isWordByte)
	if word == "" {
		return token{}, &Error{start, fmt.Sprintf("unexpected character %q", c)}
	}
	switch kw := keyword(word); {
	case kw != "":
		return token{kind: tokKeyword, text: kw, pos: start}, nil
	case word == "a":
		return token{kind: tokA, text: word, pos: start}, nil
	case isAllDigits(word):
		return token{kind: tokNumber, text: word, pos: start}, nil
	case strings.Contains(word, ":"):
		return token{kind: tokPName, text: word, pos: start}, nil
	}
	return token{}, &Error{start, fmt.Sprintf("unrecognized token %q", word)}
}

// punct takes the one byte at the cursor as a token of the given kind.
func (l *lexer) punct(kind tokenKind) token {
	l.i++
	return token{kind: kind, text: l.src[l.i-1 : l.i], pos: l.i - 1}
}

// skipSpaceAndComments skips blanks — the six ASCII ones, nothing else —
// and '#' comments, which run to the end of the line.
func (l *lexer) skipSpaceAndComments() {
	for l.i < len(l.src) {
		switch l.src[l.i] {
		case '#':
			for l.i < len(l.src) && l.src[l.i] != '\n' {
				l.i++
			}
		case ' ', '\t', '\n', '\r', '\v', '\f':
			l.i++
		default:
			return
		}
	}
}

func (l *lexer) takeWhile(pred func(byte) bool) string {
	start := l.i
	for l.i < len(l.src) && pred(l.src[l.i]) {
		l.i++
	}
	return l.src[start:l.i]
}

func isAllDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// The three byte classes that continue a token past its first byte. '#'
// starts a comment only where a token would start: of the three only a
// word takes it as content.

// isNameByte reports whether c continues a variable name: a letter,
// digit or underscore.
func isNameByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// isLangTagByte reports whether c continues a literal's @language tag.
func isLangTagByte(c byte) bool { return isNameByte(c) || c == '-' }

// isWordByte reports whether c continues a word — a keyword, number,
// prefixed name or ^^datatype name.
func isWordByte(c byte) bool {
	return isNameByte(c) || c == ':' || c == '-' || c == '/' || c == '#'
}

// literal scans "body" with its optional @lang or ^^datatype.
func (l *lexer) literal() (token, error) {
	start := l.i
	body, n, err := rdf.ScanString(l.src[start:])
	if err != nil {
		return token{}, &Error{start, err.Error()}
	}
	tok := token{kind: tokLiteral, text: body, pos: start}
	l.i += n
	if l.i < len(l.src) && l.src[l.i] == '@' {
		l.i++
		tok.lang = l.takeWhile(isLangTagByte)
		if tok.lang == "" {
			return token{}, &Error{l.i, "empty language tag"}
		}
	} else if strings.HasPrefix(l.src[l.i:], "^^") {
		l.i += 2
		if l.i < len(l.src) && l.src[l.i] == '<' {
			_, n, err := rdf.ReadIRI(l.src[l.i:])
			if err != nil {
				return token{}, &Error{l.i, "datatype: " + err.Error()}
			}
			tok.dt = l.src[l.i : l.i+n]
			l.i += n
		} else {
			tok.dt = l.takeWhile(isWordByte)
			if tok.dt == "" {
				return token{}, &Error{l.i, "missing datatype"}
			}
		}
	}
	return tok, nil
}
