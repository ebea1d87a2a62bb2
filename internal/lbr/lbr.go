// Package lbr reimplements the LBR baseline (Atre, "Left Bit Right: For
// SPARQL Join Queries with OPTIONAL Patterns", SIGMOD 2015) that the
// paper compares against in §7.2.
//
// LBR's execution strategy, as characterized by the paper, differs from
// the BE-tree scheme in two ways that this implementation reproduces:
//
//  1. Triple patterns are evaluated separately — every pattern of a group
//     is materialized in full before any combination happens (no BGP
//     engine with join-order optimization inside a group).
//  2. Before combining, LBR runs a two-pass semijoin scan over the graph
//     of join variables (a forward and a backward pass), pruning each
//     pattern's result set against its already-scanned neighbours; results
//     of OPTIONAL (slave) patterns may be pruned by their masters, never
//     the reverse, preserving left-outer-join semantics (the nullification
//     / best-match discipline of well-designed patterns).
//
// The final combination joins the pruned pattern results within a group
// and left-outer-joins OPTIONAL children, bottom-up.
package lbr

import (
	"time"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// Result carries the outcome of an LBR evaluation.
type Result struct {
	Bag      *algebra.Bag
	Vars     *algebra.VarSet
	ExecTime time.Duration
	// Semijoins counts semijoin prunings performed across both passes.
	Semijoins int
	// Materialized sums the sizes of all per-pattern scans, the
	// intermediate-result overhead LBR pays before pruning.
	Materialized int
}

// Run evaluates a SPARQL-UO query with the LBR strategy. The store must
// be frozen. UNION elements are supported by evaluating branches
// independently (LBR itself targets OPTIONAL queries; the paper's
// comparison set q2.1–q2.6 is OPTIONAL-only).
func Run(q *sparql.Query, st *store.Store) (*Result, error) {
	vars := algebra.NewVarSet()
	internGroup(q.Where, vars)
	for _, v := range q.Select {
		vars.Intern(v)
	}
	ev := &evaluator{st: st, vars: vars, width: vars.Len()}
	start := time.Now()
	bag := ev.group(q.Where)
	if len(q.Select) > 0 {
		keep := make([]int, 0, len(q.Select))
		for _, name := range q.Select {
			if i, ok := vars.Lookup(name); ok {
				keep = append(keep, i)
			}
		}
		bag = algebra.Project(bag, keep)
	}
	if q.Distinct {
		bag = algebra.Distinct(bag)
	}
	return &Result{
		Bag:          bag,
		Vars:         vars,
		ExecTime:     time.Since(start),
		Semijoins:    ev.semijoins,
		Materialized: ev.materialized,
	}, nil
}

func internGroup(g *sparql.Group, vars *algebra.VarSet) {
	for _, e := range g.Elements {
		switch e := e.(type) {
		case sparql.TriplePattern:
			for _, v := range e.Vars() {
				vars.Intern(v)
			}
		case *sparql.Group:
			internGroup(e, vars)
		case *sparql.Union:
			for _, br := range e.Branches {
				internGroup(br, vars)
			}
		case *sparql.Optional:
			internGroup(e.Group, vars)
		}
	}
}

type evaluator struct {
	st           *store.Store
	vars         *algebra.VarSet
	width        int
	semijoins    int
	materialized int
}

// patternBag materializes one triple pattern in full: LBR's separate
// treatment of triple patterns.
func (ev *evaluator) patternBag(tp sparql.TriplePattern) *algebra.Bag {
	pat := ev.encode(tp)
	out := algebra.NewBag(ev.width)
	for _, v := range pat.Vars() {
		out.Cert.Set(v)
		out.Maybe.Set(v)
	}
	out.Order = exec.MatchOrder(ev.st, pat, func(int) bool { return false }, nil)
	seed := make(algebra.Row, ev.width)
	exec.MatchPattern(ev.st, pat, seed, nil, func(r algebra.Row) bool {
		out.Append(r)
		return true
	})
	ev.materialized += out.Len()
	return out
}

func (ev *evaluator) encode(tp sparql.TriplePattern) exec.Pattern {
	enc := func(tv sparql.TermOrVar) exec.Pos {
		if tv.IsVar {
			i, _ := ev.vars.Lookup(tv.Var)
			return exec.Var(i)
		}
		id, _ := ev.st.Dict().Lookup(tv.Term)
		return exec.Const(id)
	}
	return exec.Pattern{S: enc(tp.S), P: enc(tp.P), O: enc(tp.O)}
}

// group evaluates a group graph pattern the LBR way, under the same
// semantics as the BE-tree scheme (the paper's precedence AND ≺ OPTIONAL):
// required elements — triple patterns, nested groups, UNIONs — combine
// first, in order; OPTIONAL children are then left-outer-joined, in
// order. The group's triple patterns are materialized separately and
// pruned by the two-pass semijoin scan before being joined; each
// OPTIONAL's slave (right) side is pruned by a semijoin against the
// master before the left outer join.
func (ev *evaluator) group(g *sparql.Group) *algebra.Bag {
	// Materialize all of this level's triple patterns.
	var tps []*algebra.Bag
	for _, e := range g.Elements {
		if tp, ok := e.(sparql.TriplePattern); ok {
			tps = append(tps, ev.patternBag(tp))
		}
	}
	ev.twoPassSemijoin(tps)

	var r *algebra.Bag
	k := 0
	var optionals []*sparql.Optional
	for _, e := range g.Elements {
		switch e := e.(type) {
		case sparql.TriplePattern:
			r = ev.joinWith(r, tps[k])
			k++
		case *sparql.Group:
			r = ev.joinWith(r, ev.group(e))
		case *sparql.Union:
			branches := make([]*algebra.Bag, len(e.Branches))
			for i, br := range e.Branches {
				branches[i] = ev.group(br)
			}
			r = ev.joinWith(r, algebra.UnionAll(ev.width, branches...))
		case *sparql.Optional:
			optionals = append(optionals, e)
		}
	}
	if r == nil {
		r = algebra.Unit(ev.width)
	}
	for _, opt := range optionals {
		o := ev.group(opt.Group)
		// Master prunes slave (never the reverse).
		pruned := algebra.SemiJoin(o, r)
		ev.semijoins++
		r = algebra.LeftJoin(r, pruned)
	}
	return r
}

func (ev *evaluator) joinWith(r, o *algebra.Bag) *algebra.Bag {
	if r == nil {
		return o
	}
	return algebra.Join(r, o)
}

// twoPassSemijoin prunes each pattern's results against its neighbours in
// the join-variable graph, first left-to-right then right-to-left,
// mirroring LBR's forward/backward semijoin scans.
func (ev *evaluator) twoPassSemijoin(bags []*algebra.Bag) {
	if len(bags) < 2 {
		return
	}
	adjacent := func(a, b *algebra.Bag) bool {
		shared := a.Cert.And(b.Cert)
		for _, w := range shared {
			if w != 0 {
				return true
			}
		}
		return false
	}
	// Forward pass: prune bags[i] by every earlier neighbour.
	for i := 1; i < len(bags); i++ {
		for j := 0; j < i; j++ {
			if adjacent(bags[i], bags[j]) {
				bags[i] = algebra.SemiJoin(bags[i], bags[j])
				ev.semijoins++
			}
		}
	}
	// Backward pass: prune bags[i] by every later neighbour.
	for i := len(bags) - 2; i >= 0; i-- {
		for j := len(bags) - 1; j > i; j-- {
			if adjacent(bags[i], bags[j]) {
				bags[i] = algebra.SemiJoin(bags[i], bags[j])
				ev.semijoins++
			}
		}
	}
}
