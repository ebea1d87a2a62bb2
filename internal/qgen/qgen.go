// Package qgen generates random RDF datasets and random SPARQL-UO
// queries for property-based differential testing: the equivalence of
// base/TT/CP/full (Theorems 1–2 plus candidate-pruning soundness) and of
// the LBR baseline is checked over thousands of (dataset, query) pairs.
//
// The generator uses a deliberately tiny vocabulary so that random
// patterns frequently match, join variables overlap, and OPTIONAL
// mismatches occur — the interesting cases for bag semantics.
package qgen

import (
	"fmt"
	"math/rand"
	"strings"

	"sparqluo/internal/rdf"
)

// Vocabulary sizes. Small on purpose: collisions create joins.
const (
	numSubjects   = 12
	numPredicates = 5
	numObjects    = 10
	numVars       = 6
)

// RandomDataset returns n random triples over the tiny vocabulary.
func RandomDataset(rng *rand.Rand, n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", rng.Intn(numSubjects)))
		p := rdf.NewIRI(fmt.Sprintf("http://ex.org/p%d", rng.Intn(numPredicates)))
		var o rdf.Term
		if rng.Intn(4) == 0 {
			o = rdf.NewLiteral(fmt.Sprintf("lit%d", rng.Intn(numObjects)))
		} else {
			// Objects drawn from the subject space so paths chain.
			o = rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", rng.Intn(numSubjects)))
		}
		out = append(out, rdf.Triple{S: s, P: p, O: o})
	}
	return out
}

// Config bounds the shape of generated queries.
type Config struct {
	MaxDepth    int // maximum group nesting depth
	MaxElements int // maximum elements per group
	// WellDesigned forbids a UNION element (LBR's target fragment is
	// OPTIONAL-only); OPTIONALs are always generated.
	NoUnion bool
}

// DefaultConfig is a reasonable fuzzing shape.
func DefaultConfig() Config { return Config{MaxDepth: 3, MaxElements: 4} }

// RandomQuery returns a random SPARQL-UO SELECT query as text.
func RandomQuery(rng *rand.Rand, cfg Config) string {
	g := &qgenState{rng: rng, cfg: cfg}
	var b strings.Builder
	b.WriteString("SELECT * WHERE ")
	g.group(&b, cfg.MaxDepth, true)
	return b.String()
}

// RandomModifiers rewrites a RandomQuery text with a random tail of
// solution modifiers, each present half the time: a random subset of
// the variables projected instead of *, DISTINCT, ORDER BY with 1–2
// keys written ASC(?v) or DESC(?v), LIMIT 0–7 and OFFSET 0–4. Keys and
// projection draw from the whole variable space, so they may name a
// variable the pattern never binds.
func RandomModifiers(rng *rand.Rand, query string) string {
	where, ok := strings.CutPrefix(query, "SELECT * ")
	if !ok {
		panic("qgen: not a RandomQuery text: " + query)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if rng.Intn(2) == 0 {
		b.WriteString("DISTINCT ")
	}
	if rng.Intn(2) == 0 {
		b.WriteString("* ")
	} else {
		for _, v := range rng.Perm(numVars)[:1+rng.Intn(numVars-1)] {
			fmt.Fprintf(&b, "?v%d ", v)
		}
	}
	b.WriteString(where)
	if rng.Intn(2) == 0 {
		b.WriteString(" ORDER BY")
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			fmt.Fprintf(&b, " %s(?v%d)", [2]string{"ASC", "DESC"}[rng.Intn(2)], rng.Intn(numVars))
		}
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", rng.Intn(8))
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, " OFFSET %d", rng.Intn(5))
	}
	return b.String()
}

type qgenState struct {
	rng *rand.Rand
	cfg Config
}

func (g *qgenState) variable() string {
	return fmt.Sprintf("?v%d", g.rng.Intn(numVars))
}

func (g *qgenState) subjectTerm() string {
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("<http://ex.org/s%d>", g.rng.Intn(numSubjects))
	}
	return g.variable()
}

func (g *qgenState) predicateTerm() string {
	if g.rng.Intn(8) == 0 {
		return g.variable()
	}
	return fmt.Sprintf("<http://ex.org/p%d>", g.rng.Intn(numPredicates))
}

func (g *qgenState) objectTerm() string {
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("<http://ex.org/s%d>", g.rng.Intn(numSubjects))
	case 1:
		return fmt.Sprintf("\"lit%d\"", g.rng.Intn(numObjects))
	default:
		return g.variable()
	}
}

func (g *qgenState) triple(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s %s . ", g.subjectTerm(), g.predicateTerm(), g.objectTerm())
}

// group emits a brace-delimited group graph pattern. A group always
// starts with at least one triple pattern so OPTIONAL has a left side.
func (g *qgenState) group(b *strings.Builder, depth int, top bool) {
	b.WriteString("{ ")
	n := 1 + g.rng.Intn(g.cfg.MaxElements)
	g.triple(b) // ensure non-empty required part
	for i := 1; i < n; i++ {
		switch choice := g.rng.Intn(10); {
		case choice < 4 || depth == 0:
			g.triple(b)
		case choice < 6 && !g.cfg.NoUnion:
			g.group(b, depth-1, false)
			b.WriteString(" UNION ")
			g.group(b, depth-1, false)
			b.WriteString(" ")
		case choice < 8:
			b.WriteString("OPTIONAL ")
			g.group(b, depth-1, false)
			b.WriteString(" ")
		default:
			g.group(b, depth-1, false)
			b.WriteString(" ")
		}
	}
	b.WriteString("}")
	_ = top
}
