package core

import (
	"context"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// Plan is a reusable execution plan: the BE-tree built once from a
// parsed query against one store's dictionary. A Plan is immutable
// after construction — ExecPlan clones the tree whenever a strategy
// needs to rewrite it — so any number of goroutines may execute the
// same Plan concurrently. This is the parse-once/execute-many split:
// BuildPlan pays the parse+build cost a single time, ExecPlan pays
// only the per-execution transform+evaluate cost.
type Plan struct {
	Tree *Tree
	st   store.Reader
}

// BuildPlan constructs the execution plan of a parsed query against a
// store: the BE-tree of Definition 8 with triple patterns
// dictionary-encoded and sibling patterns coalesced into maximal BGPs.
func BuildPlan(q *sparql.Query, st store.Reader) (*Plan, error) {
	tree, err := Build(q, st)
	if err != nil {
		return nil, err
	}
	return &Plan{Tree: tree, st: st}, nil
}

// On returns the plan retargeted at st: the same tree, read from st on
// execution. The caller picks the store — a live database pins one
// immutable view per execution — so st must share the dictionary the
// plan was built against. It returns p itself when st is already the
// plan's store.
func (p *Plan) On(st store.Reader) *Plan {
	if st == p.st {
		return p
	}
	return &Plan{Tree: p.Tree, st: st}
}

// Clone returns a deep copy of the plan (sharing the store and the
// immutable variable table).
func (p *Plan) Clone() *Plan { return &Plan{Tree: p.Tree.Clone(), st: p.st} }

// WarmEstimates memoizes the engine's BGP cardinality/cost estimates
// into every BGP node of the plan's tree. The sampling estimators are
// deterministic, so warming precomputes exactly the values a
// transforming execution would derive on its per-execution clone — the
// clone inherits the memo and skips re-sampling, which is the dominant
// per-execution cost of the TT/Full strategies on selective queries.
// Estimates are engine-specific: warm a dedicated plan copy per engine
// (see Clone), and do not warm a plan that is concurrently executing.
func (p *Plan) WarmEstimates(engine exec.Engine) {
	cm := &costModel{st: p.st, engine: engine, ctx: context.Background()}
	cm.fillEstimates(p.Tree.Root)
}

// Transformed returns the tree the given strategy would evaluate for
// this plan — the step ExecPlan runs before evaluation — without
// executing it: the plan's own tree under Base and CP, a transformed
// clone (costed with the engine's estimators) under TT and Full.
func (p *Plan) Transformed(engine exec.Engine, strat Strategy) *Tree {
	t, _ := transform(context.Background(), p.Tree, p.st, engine, strat)
	return t
}

// BoundValue is one parameter binding for Plan.Bind: the dictionary ID
// the variable is substituted with in the encoded patterns, plus the
// source term for plan rendering. An ID of store.None (term absent from
// the dictionary) makes every pattern containing the variable
// impossible, which correctly yields no matches for that pattern.
type BoundValue struct {
	ID   store.ID
	Term rdf.Term
}

// Bind returns a copy of the plan with each given variable (by index in
// the plan's variable table) replaced by a ground term in every triple
// pattern — the parameter-substitution half of a prepared query. The
// receiver is unchanged; the copy shares the variable table, so row
// layouts stay compatible with the original plan.
func (p *Plan) Bind(vals map[int]BoundValue) *Plan {
	if len(vals) == 0 {
		return p
	}
	t := p.Tree.Clone()
	for n := range bgps(t.Root) {
		changed := false
		for i := range n.Enc {
			n.Enc[i].S, changed = bindPos(n.Enc[i].S, vals, changed)
			n.Enc[i].P, changed = bindPos(n.Enc[i].P, vals, changed)
			n.Enc[i].O, changed = bindPos(n.Enc[i].O, vals, changed)
		}
		if !changed {
			continue
		}
		// Keep the display form in sync. Memoized estimates are kept
		// deliberately: a bound plan is a "generic plan" in the prepared-
		// statement sense — it reuses the template's statistics rather
		// than re-sampling per parameter, which would forfeit the
		// amortization Prepare exists for. Estimates only steer plan
		// choice (transformations, adaptive pruning thresholds), never
		// correctness; binding makes patterns at most more selective, so
		// the template estimate is a sound upper bound.
		for i := range n.Src {
			n.Src[i].S = bindTermOrVar(n.Src[i].S, t.Vars, vals)
			n.Src[i].P = bindTermOrVar(n.Src[i].P, t.Vars, vals)
			n.Src[i].O = bindTermOrVar(n.Src[i].O, t.Vars, vals)
		}
	}
	return &Plan{Tree: t, st: p.st}
}

func bindPos(pos exec.Pos, vals map[int]BoundValue, changed bool) (exec.Pos, bool) {
	if pos.IsVar {
		if v, ok := vals[pos.Var]; ok {
			return exec.Const(v.ID), true
		}
	}
	return pos, changed
}

func bindTermOrVar(tv sparql.TermOrVar, vars *algebra.VarSet, vals map[int]BoundValue) sparql.TermOrVar {
	if !tv.IsVar {
		return tv
	}
	for idx, v := range vals {
		if vars.Name(idx) == tv.Var {
			return sparql.Ground(v.Term)
		}
	}
	return tv
}
