package sparqluo

import (
	"context"
	"fmt"
	"sync"

	"sparqluo/internal/core"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// Prepared is a query that has been parsed and planned once against a
// DB. Each Exec/ExecContext call reuses the built BE-tree — and, per
// engine, the memoized cost-model estimates — paying only the
// per-execution transform+evaluate cost: the parse-once / execute-many
// half of the query API. A Prepared is safe for concurrent use by any
// number of goroutines. On a live database each execution pins the view
// current when it starts, so a Prepared held across writes and
// compactions reads the current epoch every time.
type Prepared struct {
	db       *DB
	plan     *core.Plan
	q        *sparql.Query
	text     string
	defaults queryConfig

	// warmed holds, per engine, a plan copy whose BGP estimates have
	// been memoized with that engine's (deterministic) estimators. The
	// per-execution clone of a transforming strategy inherits the memo,
	// so cost-model sampling — the dominant per-execution cost of
	// TT/Full on selective queries — is paid once per engine, not per
	// call. Built lazily under mu on first use of each engine.
	mu     sync.Mutex
	warmed map[Engine]*core.Plan
}

// Prepare parses a SPARQL-UO SELECT query and builds its execution
// plan. Options given here become the defaults for every Exec; options
// given to Exec override them per call. The DB must be frozen (the
// plan encodes terms against the frozen dictionary).
func (db *DB) Prepare(text string, opts ...Option) (*Prepared, error) {
	if db.loading() {
		return nil, fmt.Errorf("sparqluo: DB must be frozen before preparing queries (call Freeze)")
	}
	st := db.reader()
	cfg := defaultQueryConfig()
	for _, o := range opts {
		o(&cfg)
	}
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	plan, err := core.BuildPlan(q, st)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, plan: plan, q: q, text: text, defaults: cfg}, nil
}

// Text returns the query text the statement was prepared from.
func (p *Prepared) Text() string { return p.text }

// Vars returns the variable names a result row of this query carries,
// in projection order.
func (p *Prepared) Vars() []string {
	if len(p.q.Select) > 0 {
		return append([]string(nil), p.q.Select...)
	}
	return append([]string(nil), p.plan.Tree.Vars.Names()...)
}

// Exec executes the prepared query. It is ExecContext with a background
// context.
func (p *Prepared) Exec(opts ...Option) (*Results, error) {
	return p.ExecContext(context.Background(), opts...)
}

// ExecContext executes the prepared query under a context, reusing the
// plan built by Prepare. Options override the Prepare-time defaults for
// this execution only; Bind options substitute ground terms for query
// variables before execution (see Bind). Cancelling ctx aborts
// evaluation promptly and returns an error wrapping ctx.Err().
func (p *Prepared) ExecContext(ctx context.Context, opts ...Option) (*Results, error) {
	st := p.db.reader()
	cfg, plan, bound, err := p.configure(st, opts)
	if err != nil {
		return nil, err
	}
	res, err := core.ExecPlan(ctx, plan, cfg.engine.impl(), cfg.strategy,
		core.ExecOptions{
			Limit:    cfg.limit,
			LimitSet: cfg.limit >= 0,
			Offset:   cfg.offset,
		})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("sparqluo: query aborted: %w", err)
		}
		return nil, err
	}
	// Report each bound parameter as a constant binding of its variable,
	// so templated results are self-describing.
	for idx, v := range bound {
		if v.ID == store.None {
			continue
		}
		res.Bag.SetColumn(idx, v.ID)
	}
	return newResults(st.Dict(), p.q, res), nil
}

// Explain returns the BE-tree plan as built and as the selected strategy
// would evaluate it, without executing it — the same transformation step
// an execution with these options runs. It honors WithEngine (the
// transformation is costed with that engine's estimators), WithStrategy
// (Base and CP never transform; Full skips transformations that are
// equivalent to candidate pruning, per §6) and Bind.
func (p *Prepared) Explain(opts ...Option) (before, after string, err error) {
	cfg, plan, _, err := p.configure(p.db.reader(), opts)
	if err != nil {
		return "", "", err
	}
	return plan.Tree.String(), plan.Transformed(cfg.engine.impl(), cfg.strategy).String(), nil
}

// planFor returns the estimate-warmed plan for an engine, building it
// on first use against st. Warming happens under mu on a private clone,
// so concurrent executions never observe a half-warmed tree; afterwards
// the plan is read-only (transforming strategies clone it per call).
func (p *Prepared) planFor(eng Engine, st store.Reader) *core.Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan, ok := p.warmed[eng]; ok {
		return plan
	}
	plan := p.plan.On(st).Clone()
	plan.WarmEstimates(eng.impl())
	if p.warmed == nil {
		p.warmed = make(map[Engine]*core.Plan, 2)
	}
	p.warmed[eng] = plan
	return plan
}

// configure resolves one execution's options against the prepare-time
// defaults, retargets the plan at st — the store this execution reads,
// on a live database the view pinned for it, so the whole execution sees
// one epoch — and applies any parameter bindings to the plan.
func (p *Prepared) configure(st store.Reader, opts []Option) (queryConfig, *core.Plan, map[int]core.BoundValue, error) {
	cfg := p.defaults
	cfg.bindings = nil
	if len(p.defaults.bindings) > 0 {
		cfg.bindings = make(map[string]Term, len(p.defaults.bindings))
		for k, v := range p.defaults.bindings {
			cfg.bindings[k] = v
		}
	}
	for _, o := range opts {
		o(&cfg)
	}
	plan := p.planFor(cfg.engine, st).On(st)
	var bound map[int]core.BoundValue
	if len(cfg.bindings) > 0 {
		bound = make(map[int]core.BoundValue, len(cfg.bindings))
		for name, term := range cfg.bindings {
			idx, ok := plan.Tree.Vars.Lookup(name)
			if !ok {
				return cfg, nil, nil, fmt.Errorf("sparqluo: cannot bind ?%s: query has no such variable", name)
			}
			id, _ := st.Dict().Lookup(term) // None when absent: patterns become impossible
			bound[idx] = core.BoundValue{ID: id, Term: term}
		}
		plan = plan.Bind(bound)
	}
	return cfg, plan, bound, nil
}
