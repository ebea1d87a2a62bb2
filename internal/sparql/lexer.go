package sparql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokLBrace
	tokRBrace
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
	text string // raw text; for literals the lexical form
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

var keywords = map[string]bool{
	"SELECT": true, "WHERE": true, "UNION": true,
	"OPTIONAL": true, "PREFIX": true, "DISTINCT": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true,
}

type lexer struct {
	src  string
	i    int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.i >= len(l.src) {
			l.emit(token{kind: tokEOF, pos: l.i})
			return l.toks, nil
		}
		start := l.i
		c := l.src[l.i]
		switch {
		case c == '{':
			l.i++
			l.emit(token{kind: tokLBrace, pos: start})
		case c == '}':
			l.i++
			l.emit(token{kind: tokRBrace, pos: start})
		case c == '.':
			l.i++
			l.emit(token{kind: tokDot, pos: start})
		case c == '*':
			l.i++
			l.emit(token{kind: tokStar, pos: start})
		case c == '?' || c == '$':
			l.i++
			name := l.takeWhile(IsNameByte)
			if name == "" {
				return nil, &Error{start, "empty variable name"}
			}
			l.emit(token{kind: tokVar, text: name, pos: start})
		case c == '<':
			end := strings.IndexByte(l.src[l.i:], '>')
			if end < 0 {
				return nil, &Error{start, "unterminated IRI"}
			}
			l.emit(token{kind: tokIRI, text: l.src[l.i+1 : l.i+end], pos: start})
			l.i += end + 1
		case c == '"':
			tok, err := l.literal()
			if err != nil {
				return nil, err
			}
			l.emit(tok)
		default:
			word := l.takeWhile(IsWordByte)
			if word == "" {
				return nil, &Error{start, fmt.Sprintf("unexpected character %q", c)}
			}
			upper := strings.ToUpper(word)
			switch {
			case keywords[upper]:
				l.emit(token{kind: tokKeyword, text: upper, pos: start})
			case word == "a":
				l.emit(token{kind: tokA, pos: start})
			case isAllDigits(word):
				l.emit(token{kind: tokNumber, text: word, pos: start})
			case strings.Contains(word, ":"):
				l.emit(token{kind: tokPName, text: word, pos: start})
			default:
				return nil, &Error{start, fmt.Sprintf("unrecognized token %q", word)}
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipSpaceAndComments() {
	for l.i < len(l.src) {
		c := l.src[l.i]
		if c == '#' {
			for l.i < len(l.src) && l.src[l.i] != '\n' {
				l.i++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.i++
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

// The three byte classes that continue a token past its first byte.
// They are exported so the plan-cache key normalizer strips exactly the
// comments the lexer skips: '#' starts a comment only where a token
// would start, and of the three only a word takes it as content.

// IsNameByte reports whether c continues a variable name: a letter,
// digit or underscore.
func IsNameByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// IsLangTagByte reports whether c continues a literal's @language tag.
func IsLangTagByte(c byte) bool { return IsNameByte(c) || c == '-' }

// IsWordByte reports whether c continues a word — a keyword, number,
// prefixed name or ^^datatype name.
func IsWordByte(c byte) bool {
	return IsNameByte(c) || c == ':' || c == '-' || c == '/' || c == '#'
}

func (l *lexer) literal() (token, error) {
	start := l.i
	l.i++ // opening quote
	var b strings.Builder
	for l.i < len(l.src) {
		c := l.src[l.i]
		if c == '\\' && l.i+1 < len(l.src) {
			switch l.src[l.i+1] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return token{}, &Error{l.i, "unknown escape in literal"}
			}
			l.i += 2
			continue
		}
		if c == '"' {
			l.i++
			tok := token{kind: tokLiteral, text: b.String(), pos: start}
			// Optional @lang or ^^datatype.
			if l.i < len(l.src) && l.src[l.i] == '@' {
				l.i++
				tok.lang = l.takeWhile(IsLangTagByte)
				if tok.lang == "" {
					return token{}, &Error{l.i, "empty language tag"}
				}
			} else if strings.HasPrefix(l.src[l.i:], "^^") {
				l.i += 2
				if l.i < len(l.src) && l.src[l.i] == '<' {
					end := strings.IndexByte(l.src[l.i:], '>')
					if end < 0 {
						return token{}, &Error{l.i, "unterminated datatype IRI"}
					}
					tok.dt = "<" + l.src[l.i+1:l.i+end] + ">"
					l.i += end + 1
				} else {
					tok.dt = l.takeWhile(IsWordByte)
					if tok.dt == "" {
						return token{}, &Error{l.i, "missing datatype"}
					}
				}
			}
			return tok, nil
		}
		b.WriteByte(c)
		l.i++
	}
	return token{}, &Error{start, "unterminated literal"}
}
