package sparqluo

import (
	"container/list"
	"strings"
	"sync"
)

// planCache is a small mutex-guarded LRU of *Prepared keyed by
// normalized query text (plus the write epoch on a live database).
// Strategy and engine are execution options of the one cached Prepared,
// not part of the key. It sits on the HTTP serving path so hot queries skip parsing and plan
// construction; entries are immutable Prepared values, so a cached plan
// may be executed by many requests concurrently.
type planCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type planCacheEntry struct {
	key  string
	prep *Prepared
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// get returns the cached plan for key and whether it was present,
// promoting the entry to most recently used.
func (c *planCache) get(key string) (*Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry).prep, true
}

// put inserts a plan, evicting the least recently used entry when full.
func (c *planCache) put(key string, prep *Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok { // raced with another miss: keep the newer
		c.ll.MoveToFront(el)
		el.Value.(*planCacheEntry).prep = prep
		return
	}
	c.m[key] = c.ll.PushFront(&planCacheEntry{key: key, prep: prep})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*planCacheEntry).key)
	}
}

// len reports the current number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// normalizeQueryText canonicalizes lexically insignificant text so that
// reformatted copies of one query share a cache entry: runs of blanks
// outside string literals and IRI references collapse to one space,
// leading/trailing blanks are dropped, and '#' comments (which the
// lexer discards up to the newline) are removed along with their
// terminating newline — crucially, the comment acts as a token
// separator, so a commented query can never share a key with the
// uncommented text in which the comment would swallow real tokens.
// IRI references are preserved byte-for-byte — whitespace and '#'
// inside <...> are significant. String literals are re-emitted with
// every lexer-recognized escape in canonical form, so "a\tb" and the
// same literal holding a raw tab byte — identical queries to the parser
// — share one entry; a literal the lexer would reject (unknown escape,
// unterminated) is kept byte-for-byte instead. Two distinct queries can
// never normalize to the same key: canonical re-encoding is injective
// on valid literals, and an invalid literal's raw bytes contain a
// backslash sequence or missing terminator no canonical emission can.
func normalizeQueryText(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	var quote byte   // '>' while inside an IRI reference
	pending := false // a space is owed before the next token
	started := false // a non-space byte has been written
	for i := 0; i < len(s); i++ {
		c := s[i]
		if quote != 0 {
			b.WriteByte(c)
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			pending = started
			continue
		case '#':
			for i+1 < len(s) && s[i+1] != '\n' {
				i++
			}
			pending = started
			continue
		case '"':
			if pending {
				b.WriteByte(' ')
				pending = false
			}
			started = true
			lit, end := canonicalLiteral(s, i)
			b.WriteString(lit)
			i = end - 1
			continue
		case '<':
			quote = '>'
		}
		if pending {
			b.WriteByte(' ')
			pending = false
		}
		started = true
		b.WriteByte(c)
	}
	return b.String()
}

// canonicalLiteral consumes the string literal starting at the opening
// quote s[start] and returns its canonical emission plus the index just
// past the literal. A literal the lexer accepts is decoded (the escapes
// of lexer.literal: \n \t \r \" \\) and re-encoded canonically; one it
// would reject — unknown escape, trailing backslash, no closing quote —
// is returned byte-for-byte so distinct invalid texts keep distinct keys.
func canonicalLiteral(s string, start int) (string, int) {
	var content strings.Builder
	for i := start + 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			if i+1 >= len(s) {
				return s[start:], len(s) // trailing backslash: raw
			}
			switch s[i+1] {
			case 'n':
				content.WriteByte('\n')
			case 't':
				content.WriteByte('\t')
			case 'r':
				content.WriteByte('\r')
			case '"':
				content.WriteByte('"')
			case '\\':
				content.WriteByte('\\')
			default:
				// Unknown escape: the lexer rejects this literal. Emit the
				// raw bytes up to its end so the key stays injective.
				end := rawLiteralEnd(s, start)
				return s[start:end], end
			}
			i++
		case '"':
			return `"` + encodeCanonicalLiteral(content.String()) + `"`, i + 1
		default:
			content.WriteByte(c)
		}
	}
	return s[start:], len(s) // unterminated: raw
}

// rawLiteralEnd finds the index just past a literal without decoding it,
// honoring backslash-skipping exactly like the pre-canonical normalizer
// (and the lexer's cursor movement): used for literals the lexer would
// reject, which are preserved byte-for-byte.
func rawLiteralEnd(s string, start int) int {
	for i := start + 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(s)
}

// encodeCanonicalLiteral escapes a decoded literal body the one
// canonical way: exactly the bytes the lexer's escapes denote (\ " and
// the control characters n/t/r) are escaped, everything else is emitted
// verbatim. Every backslash in the output starts a valid escape and no
// raw \n/\t/\r/" survives, so decoding is unambiguous and the encoding
// is injective.
func encodeCanonicalLiteral(body string) string {
	var b strings.Builder
	b.Grow(len(body))
	for i := 0; i < len(body); i++ {
		switch c := body[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
