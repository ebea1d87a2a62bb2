// Package sparql contains the SPARQL-UO front end: a lexer and recursive
// descent parser for SELECT queries whose WHERE clause is built from triple
// patterns, nested group graph patterns, UNION and OPTIONAL expressions —
// exactly the fragment the paper targets (Definitions 2–6).
package sparql

import (
	"fmt"
	"strings"

	"sparqluo/internal/rdf"
)

// TermOrVar is a triple-pattern position: either a variable or an RDF term.
type TermOrVar struct {
	IsVar bool
	Var   string   // variable name without "?" when IsVar
	Term  rdf.Term // ground term otherwise
}

// Variable constructs a variable position.
func Variable(name string) TermOrVar { return TermOrVar{IsVar: true, Var: name} }

// Ground constructs a constant position.
func Ground(t rdf.Term) TermOrVar { return TermOrVar{Term: t} }

// String renders the position in SPARQL syntax.
func (tv TermOrVar) String() string {
	if tv.IsVar {
		return "?" + tv.Var
	}
	return tv.Term.String()
}

// TriplePattern is Definition 2: a triple over (V ∪ I) × (V ∪ I) × (V ∪ I ∪ L).
type TriplePattern struct {
	S, P, O TermOrVar
}

// String renders the pattern as "s p o .".
func (t TriplePattern) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Vars returns the variable names in the pattern, in S,P,O order without
// duplicates.
func (t TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, tv := range []TermOrVar{t.S, t.P, t.O} {
		if tv.IsVar && !seen[tv.Var] {
			seen[tv.Var] = true
			out = append(out, tv.Var)
		}
	}
	return out
}

// Element is one syntactic constituent of a group graph pattern, in source
// order: a triple pattern, a nested group, a UNION chain, or an OPTIONAL.
type Element interface{ isElement() }

// Group is a group graph pattern: a brace-delimited sequence of elements
// joined implicitly by AND.
type Group struct {
	Elements []Element
}

func (*Group) isElement() {}

// Union is a chain {G1} UNION {G2} UNION ... (two or more branches).
type Union struct {
	Branches []*Group
}

func (*Union) isElement() {}

// Optional is an OPTIONAL {G} expression. The OPTIONAL-left pattern is
// implicit: everything accumulated before it in the enclosing group.
type Optional struct {
	Group *Group
}

func (*Optional) isElement() {}

func (TriplePattern) isElement() {}

// OrderKey is one ORDER BY sort key: a variable plus direction.
type OrderKey struct {
	Var  string // variable name without "?"
	Desc bool   // true for DESC, false for ASC (the default)
}

// Query is a parsed SELECT query.
type Query struct {
	Prefixes map[string]string
	// Select lists the projection variables; empty means "all variables"
	// (SELECT * and the paper's bare SELECT WHERE form).
	Select []string
	// Distinct reports whether SELECT DISTINCT was used.
	Distinct bool
	Where    *Group
	// OrderBy lists the ORDER BY sort keys in significance order; empty
	// means no requested order.
	OrderBy []OrderKey
	// Limit caps the number of solutions returned; -1 means no limit.
	Limit int
	// Offset skips that many solutions; 0 means none.
	Offset int
}

// String renders the query (normalized; prefixes expanded).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(q.Select) == 0 {
		b.WriteString("* ")
	} else {
		for _, v := range q.Select {
			b.WriteString("?" + v + " ")
		}
	}
	b.WriteString("WHERE ")
	writeGroup(&b, q.Where, 0)
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range q.OrderBy {
			if k.Desc {
				b.WriteString(" DESC ?" + k.Var)
			} else {
				b.WriteString(" ?" + k.Var)
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.Offset)
	}
	return b.String()
}

func writeGroup(b *strings.Builder, g *Group, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString("{\n")
	for _, e := range g.Elements {
		b.WriteString(indent + "  ")
		switch e := e.(type) {
		case TriplePattern:
			b.WriteString(e.String())
		case *Group:
			writeGroup(b, e, depth+1)
		case *Union:
			for i, br := range e.Branches {
				if i > 0 {
					b.WriteString(" UNION ")
				}
				writeGroup(b, br, depth+1)
			}
		case *Optional:
			b.WriteString("OPTIONAL ")
			writeGroup(b, e.Group, depth+1)
		}
		b.WriteString("\n")
	}
	b.WriteString(indent + "}")
}
