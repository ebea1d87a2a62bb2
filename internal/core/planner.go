package core

import (
	"context"
	"fmt"
	"time"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/store"
)

// Strategy selects which of the paper's four evaluated approaches (§7.1)
// to run.
type Strategy int

const (
	// Base runs Algorithm 1 on the untransformed BE-tree, analogous to
	// stock Jena/gStore SPARQL-UO execution.
	Base Strategy = iota
	// TT applies the cost-driven tree transformation (Algorithm 4)
	// before running Algorithm 1.
	TT
	// CP runs Algorithm 1 augmented with candidate pruning on the
	// original tree, with a fixed threshold of 1% of the triples.
	CP
	// Full coordinates tree transformation and candidate pruning with an
	// adaptive threshold — the paper's complete approach.
	Full
)

// String returns the paper's abbreviation for the strategy.
func (s Strategy) String() string {
	switch s {
	case Base:
		return "base"
	case TT:
		return "TT"
	case CP:
		return "CP"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all four approaches in the paper's presentation order.
var Strategies = []Strategy{Base, TT, CP, Full}

// Result is the outcome of running a query plan.
type Result struct {
	Bag   *algebra.Bag    // solution mappings
	Vars  *algebra.VarSet // variable table (row layout)
	Tree  *Tree           // the (possibly transformed) plan that ran
	Stats *EvalStats      // per-BGP instrumentation

	Transformations int           // number of merge/inject ops applied
	TransformTime   time.Duration // time spent deciding/applying them
	ExecTime        time.Duration // time spent in Algorithm 1
}

// ExecOptions configures how a plan is executed.
type ExecOptions struct {
	// Limit, when LimitSet is true and Limit >= 0, caps the number of
	// solutions this execution returns, composing with (never widening)
	// any LIMIT in the query text. Applied per execution, so one cached
	// plan serves every page size.
	Limit int
	// LimitSet guards Limit: the zero value of ExecOptions must mean
	// "no exec-time limit", and Limit 0 is a meaningful request.
	LimitSet bool
	// Offset skips that many solutions in addition to any OFFSET in the
	// query text (the windows compose: text OFFSET first, then this).
	// Values <= 0 skip nothing.
	Offset int
}

// ExecPlan executes a plan with the given strategy and BGP engine on
// the calling goroutine, observing ctx for cancellation/deadlines and
// applying the result window in opts. The plan is not modified
// (transforming strategies clone its tree), so concurrent ExecPlan
// calls on one Plan are safe. On cancellation the ctx error is returned
// and the Result is nil. Everything the execution does —
// transformation, pruning thresholds, evaluation — reads the plan's one
// immutable store; a caller serving live data retargets the plan at a
// pinned view first (Plan.On).
func ExecPlan(ctx context.Context, p *Plan, engine exec.Engine, strat Strategy, opts ExecOptions) (*Result, error) {
	t := applyWindow(p.Tree, opts)
	res := &Result{Vars: t.Vars}
	start := time.Now()
	work, n := transform(ctx, t, p.st, engine, strat)
	res.Transformations, res.TransformTime = n, time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err // Δ-costs were truncated; the plan is unusable
	}
	prune := Pruning{}
	switch strat {
	case CP:
		prune = Pruning{Enabled: true}
	case Full:
		prune = Pruning{Enabled: true, Adaptive: true}
	}
	start = time.Now()
	bag, stats, err := EvaluateContext(ctx, work, p.st, engine, prune)
	if err != nil {
		return nil, err
	}
	res.ExecTime = time.Since(start)
	res.Bag, res.Tree, res.Stats = bag, work, stats
	return res, nil
}

// transform is the strategy's plan-rewriting step: TT and Full run the
// cost-driven transformation on a clone of t and return it with the
// number of transformations applied; Base and CP evaluate t as built.
func transform(ctx context.Context, t *Tree, st store.Reader, engine exec.Engine, strat Strategy) (*Tree, int) {
	if strat != TT && strat != Full {
		return t, 0
	}
	work := t.Clone()
	tr := NewTransformer(ctx, st, engine)
	tr.SkipWhenEquivalentToCP = strat == Full
	return work, tr.Transform(work)
}

// applyWindow composes the exec-time pagination window of opts with the
// tree's own textual LIMIT/OFFSET: the request's offset skips rows of
// the text-modified sequence, and the request's limit never widens the
// text limit. The input tree is never mutated — a shallow copy carries
// the composed window (Base/CP share the plan tree across executions).
func applyWindow(t *Tree, opts ExecOptions) *Tree {
	reqOff := opts.Offset
	if reqOff < 0 {
		reqOff = 0
	}
	reqLim := -1
	if opts.LimitSet && opts.Limit >= 0 {
		reqLim = opts.Limit
	}
	if reqOff == 0 && reqLim < 0 {
		return t
	}
	nt := *t
	off := t.Offset
	if off < 0 {
		off = 0
	}
	lim := t.Limit
	if lim >= 0 {
		// The request's offset consumes rows of the text window.
		lim -= reqOff
		if lim < 0 {
			lim = 0
		}
	}
	if reqLim >= 0 && (lim < 0 || reqLim < lim) {
		lim = reqLim
	}
	nt.Offset, nt.Limit = off+reqOff, lim
	return &nt
}
