package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"sparqluo/internal/rdf"
)

// Parse parses a SPARQL-UO SELECT query.
//
// Supported grammar (the paper's fragment plus solution modifiers):
//
//	query    := prefix* SELECT DISTINCT? (var* | '*')? WHERE? group modifier*
//	modifier := ORDER BY key+ | LIMIT n | OFFSET n
//	key      := var | (ASC|DESC) (var | '(' var ')')
//	prefix   := PREFIX pname: <iri>
//	group    := '{' element* '}'
//	element  := triple '.'? | group unionTail? | OPTIONAL group
//	unionTail:= (UNION group)+
//	triple   := term term term
//	term     := var | <iri> | pname | literal | 'a'
//
// Each modifier may appear at most once, in any order; a repeated
// ORDER BY, LIMIT or OFFSET is a positioned parse error.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks     []token
	i        int
	prefixes map[string]string
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) query() (*Query, error) {
	q := &Query{Prefixes: p.prefixes}
	for p.cur().kind == tokKeyword && p.cur().text == "PREFIX" {
		if err := p.prefix(); err != nil {
			return nil, err
		}
	}
	if p.cur().kind != tokKeyword || p.cur().text != "SELECT" {
		return nil, p.errf("expected SELECT")
	}
	p.next()
	if p.cur().kind == tokKeyword && p.cur().text == "DISTINCT" {
		q.Distinct = true
		p.next()
	}
	for {
		t := p.cur()
		if t.kind == tokVar {
			q.Select = append(q.Select, t.text)
			p.next()
			continue
		}
		if t.kind == tokStar {
			p.next() // SELECT * — same as empty list: all variables
		}
		break
	}
	if p.cur().kind == tokKeyword && p.cur().text == "WHERE" {
		p.next()
	}
	g, err := p.group()
	if err != nil {
		return nil, err
	}
	q.Where = g
	q.Limit = -1
	if err := p.modifiers(q); err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing tokens after query body")
	}
	return q, nil
}

// modifiers parses the solution modifiers (ORDER BY, LIMIT, OFFSET) in
// any order. Each clause may appear at most once: repeating one is
// almost certainly a mistake (the previous grammar silently kept the
// last value), so duplicates are rejected with the position of the
// second keyword.
func (p *parser) modifiers(q *Query) error {
	seen := map[string]bool{}
	for p.cur().kind == tokKeyword {
		kw := p.cur().text
		switch kw {
		case "ORDER", "LIMIT", "OFFSET":
		default:
			return nil
		}
		t := p.next()
		if seen[kw] {
			clause := kw
			if clause == "ORDER" {
				clause = "ORDER BY"
			}
			return &Error{Pos: t.pos, Msg: fmt.Sprintf("duplicate %s clause", clause)}
		}
		seen[kw] = true
		if kw == "ORDER" {
			if err := p.orderBy(q); err != nil {
				return err
			}
			continue
		}
		if p.cur().kind != tokNumber {
			return p.errf("expected integer after %s", kw)
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil {
			return p.errf("bad %s value: %v", kw, err)
		}
		if kw == "LIMIT" {
			q.Limit = n
		} else {
			q.Offset = n
		}
	}
	return nil
}

// orderBy parses the tail of an ORDER BY clause (the ORDER keyword has
// been consumed): BY followed by one or more keys, each a ?var, or
// ASC/DESC before a ?var — bracketed, the W3C spelling, or bare.
func (p *parser) orderBy(q *Query) error {
	if p.cur().kind != tokKeyword || p.cur().text != "BY" {
		return p.errf("expected BY after ORDER")
	}
	p.next()
	for {
		desc, bracketed := false, false
		if p.cur().kind == tokKeyword && (p.cur().text == "ASC" || p.cur().text == "DESC") {
			desc = p.next().text == "DESC"
			if bracketed = p.cur().kind == tokLParen; bracketed {
				p.next()
			}
			if p.cur().kind != tokVar {
				return p.errf("expected variable after ASC/DESC")
			}
		}
		if p.cur().kind != tokVar {
			break
		}
		q.OrderBy = append(q.OrderBy, OrderKey{Var: p.next().text, Desc: desc})
		if bracketed {
			if p.cur().kind != tokRParen {
				return p.errf("expected ')' after sort key")
			}
			p.next()
		}
	}
	if len(q.OrderBy) == 0 {
		return p.errf("expected at least one sort key after ORDER BY")
	}
	return nil
}

func (p *parser) prefix() error {
	p.next() // PREFIX
	if p.cur().kind != tokPName {
		return p.errf("expected prefixed name after PREFIX")
	}
	pname := p.next().text
	if !strings.HasSuffix(pname, ":") {
		// "pfx:" with nothing after the colon lexes as a pname; a full
		// pname like "pfx:x" here is malformed.
		colon := strings.Index(pname, ":")
		if colon != len(pname)-1 {
			return p.errf("PREFIX declaration must end with ':'")
		}
	}
	name := strings.TrimSuffix(pname, ":")
	if p.cur().kind != tokIRI {
		return p.errf("expected IRI in PREFIX declaration")
	}
	p.prefixes[name] = p.next().text
	return nil
}

func (p *parser) group() (*Group, error) {
	if p.cur().kind != tokLBrace {
		return nil, p.errf("expected '{'")
	}
	p.next()
	g := &Group{}
	for {
		switch t := p.cur(); t.kind {
		case tokRBrace:
			p.next()
			return g, nil
		case tokEOF:
			return nil, p.errf("unexpected end of query inside group")
		case tokDot:
			p.next() // stray separator
		case tokLBrace:
			sub, err := p.group()
			if err != nil {
				return nil, err
			}
			if p.cur().kind == tokKeyword && p.cur().text == "UNION" {
				u := &Union{Branches: []*Group{sub}}
				for p.cur().kind == tokKeyword && p.cur().text == "UNION" {
					p.next()
					br, err := p.group()
					if err != nil {
						return nil, err
					}
					u.Branches = append(u.Branches, br)
				}
				g.Elements = append(g.Elements, u)
			} else {
				g.Elements = append(g.Elements, sub)
			}
		case tokKeyword:
			switch t.text {
			case "OPTIONAL":
				p.next()
				sub, err := p.group()
				if err != nil {
					return nil, err
				}
				g.Elements = append(g.Elements, &Optional{Group: sub})
			case "UNION":
				return nil, p.errf("UNION must follow a group graph pattern")
			default:
				return nil, p.errf("unexpected keyword %s in group", t.text)
			}
		default:
			tp, err := p.triple()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, tp)
		}
	}
}

func (p *parser) triple() (TriplePattern, error) {
	s, err := p.term(false)
	if err != nil {
		return TriplePattern{}, err
	}
	pr, err := p.term(true)
	if err != nil {
		return TriplePattern{}, err
	}
	o, err := p.term(false)
	if err != nil {
		return TriplePattern{}, err
	}
	if p.cur().kind == tokDot {
		p.next()
	}
	return TriplePattern{S: s, P: pr, O: o}, nil
}

var rdfType = rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

func (p *parser) term(predicatePos bool) (TermOrVar, error) {
	switch t := p.cur(); t.kind {
	case tokVar:
		p.next()
		return Variable(t.text), nil
	case tokIRI:
		p.next()
		return Ground(rdf.NewIRI(t.text)), nil
	case tokPName:
		p.next()
		iri, err := p.expand(t.text)
		if err != nil {
			return TermOrVar{}, err
		}
		return Ground(rdf.NewIRI(iri)), nil
	case tokA:
		if !predicatePos {
			return TermOrVar{}, p.errf("'a' is only valid in predicate position")
		}
		p.next()
		return Ground(rdfType), nil
	case tokLiteral:
		p.next()
		switch {
		case t.lang != "":
			return Ground(rdf.NewLangLiteral(t.text, t.lang)), nil
		case t.dt != "":
			dt := t.dt
			if strings.HasPrefix(dt, "<") {
				dt = strings.Trim(dt, "<>")
			} else {
				expanded, err := p.expand(dt)
				if err != nil {
					return TermOrVar{}, err
				}
				dt = expanded
			}
			return Ground(rdf.NewTypedLiteral(t.text, dt)), nil
		default:
			return Ground(rdf.NewLiteral(t.text)), nil
		}
	default:
		return TermOrVar{}, p.errf("expected term, got token kind %d", t.kind)
	}
}

func (p *parser) expand(pname string) (string, error) {
	pfx, local, ok := strings.Cut(pname, ":")
	if !ok { // a ^^datatype word: the lexer only vouches for token-level pnames
		return "", p.errf("expected a prefixed name, got %q", pname)
	}
	base, ok := p.prefixes[pfx]
	if !ok {
		return "", p.errf("undeclared prefix %q", pfx)
	}
	return base + local, nil
}
