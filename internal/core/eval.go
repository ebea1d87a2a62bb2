package core

import (
	"context"

	"sparqluo/internal/algebra"
	"sparqluo/internal/exec"
	"sparqluo/internal/store"
)

// Pruning configures the candidate pruning optimization of §6.
type Pruning struct {
	// Enabled turns candidate pruning on.
	Enabled bool
	// FixedThreshold, when > 0, is an absolute cap on candidate set
	// sizes (the CP approach uses 1% of the number of triples).
	FixedThreshold int
	// Adaptive, when true, uses the BGP result-size estimate produced by
	// the cost model as the per-BGP threshold whenever available (the
	// full approach); FixedThreshold is the fallback.
	Adaptive bool
}

// EvalStats collects instrumentation from one evaluation.
type EvalStats struct {
	// BGPResults records the materialized result size of every BGP node
	// evaluation, in evaluation order. Feeds the join space metric.
	BGPResults []int
	// bgpSizes maps BGP nodes to their last materialized size.
	bgpSizes map[*BGPNode]int
	// PrunedBGPs counts BGP evaluations that ran with a candidate set or
	// were pruned by an empty context (recorded as 0 in BGPResults, the
	// engine never called).
	PrunedBGPs int
	// RowsPulled counts the operand/index rows drawn by the engines and
	// the final capped operators — the work metric that shrinks when
	// LIMIT push-down terminates early.
	RowsPulled int
}

func newEvalStats() *EvalStats {
	return &EvalStats{bgpSizes: make(map[*BGPNode]int)}
}

// evaluator runs Algorithm 1 (optionally augmented with candidate
// pruning) over a BE-tree, depth first on the calling goroutine.
type evaluator struct {
	ctx    context.Context
	st     store.Reader
	engine exec.Engine
	width  int
	prune  Pruning
	stats  *EvalStats
}

// EvaluateContext runs the BGP-based evaluation scheme (Algorithm 1) on
// the tree and returns the bag of solution mappings plus
// instrumentation, with the solution modifiers applied (ORDER BY, SELECT
// projection, DISTINCT, OFFSET/LIMIT). The tree is walked depth first on
// the calling goroutine: UNION branches and OPTIONAL subtrees are
// evaluated in sibling order, so row order and instrumentation are a
// deterministic function of the plan and the store.
//
// The context is observed between node evaluations and inside the
// engines' join loops: when it is cancelled or its deadline passes,
// evaluation stops promptly and ctx.Err() is returned.
func EvaluateContext(ctx context.Context, t *Tree, st store.Reader, engine exec.Engine, prune Pruning) (*algebra.Bag, *EvalStats, error) {
	ev := &evaluator{
		ctx:    ctx,
		st:     st,
		engine: engine,
		width:  t.Vars.Len(),
		prune:  prune,
		stats:  newEvalStats(),
	}
	res := ev.groupTop(t.Root, nil, rootCap(t))
	if err := ctx.Err(); err != nil {
		return nil, ev.stats, err
	}
	// W3C modifier order: ORDER BY applies to the full solution sequence
	// before projection (Project zeroes dropped columns, which would
	// destroy the sort keys), then DISTINCT keeps first occurrences of
	// the sorted sequence, then the OFFSET/LIMIT slice.
	if len(t.OrderBy) > 0 {
		res = applyOrder(res, t.OrderBy, t.Distinct, t.Offset, t.Limit)
	}
	if len(t.Select) > 0 {
		keep := make([]int, 0, len(t.Select))
		for _, name := range t.Select {
			if i, ok := t.Vars.Lookup(name); ok {
				keep = append(keep, i)
			}
		}
		res = algebra.Project(res, keep)
	}
	if t.Distinct {
		res = algebra.Distinct(res)
	}
	res = applySlice(res, t.Offset, t.Limit)
	return res, ev.stats, nil
}

// rootCap returns the row count after which the root group may stop
// producing, or -1 when early termination is unsound: DISTINCT shrinks
// the sequence and ORDER BY reorders it, so under either the full result
// is needed (ORDER BY instead terminates early through TopK).
func rootCap(t *Tree) int {
	if t.Limit < 0 || t.Distinct || len(t.OrderBy) > 0 {
		return -1
	}
	off := t.Offset
	if off < 0 {
		off = 0
	}
	return off + t.Limit
}

// applyOrder implements ORDER BY: free when the bag's physical order
// already covers the keys, a bounded-heap top-k when a LIMIT window
// means only the first offset+limit sorted rows survive (unsound under
// DISTINCT, which dedups before slicing), and a full stable sort
// otherwise. All three paths yield byte-identical prefixes.
func applyOrder(b *algebra.Bag, keys []algebra.SortKey, distinct bool, offset, limit int) *algebra.Bag {
	if algebra.OrderCoversKeys(b.Order, keys) {
		return b
	}
	if limit >= 0 && !distinct {
		if offset < 0 {
			offset = 0
		}
		if k := offset + limit; k < b.Len() {
			return algebra.TopK(b, keys, k)
		}
	}
	return algebra.SortByKeys(b, keys)
}

// applySlice implements the OFFSET and LIMIT solution modifiers as a
// zero-copy view of the result arena.
func applySlice(b *algebra.Bag, offset, limit int) *algebra.Bag {
	if offset <= 0 && limit < 0 {
		return b
	}
	if offset < 0 {
		offset = 0
	}
	if offset > b.Len() {
		offset = b.Len()
	}
	end := b.Len()
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	return b.View(offset, end)
}

// groupTop evaluates a group graph pattern node. incoming carries the
// parent's current partial results for candidate derivation (§6); it does
// not participate in the join (the caller joins afterwards). Under
// pruning, an empty context — incoming, or the group's own partial
// result once a required child has emptied it — prunes every BGP it
// reaches instead (see evalBGP).
//
// Following the paper's operator precedence ({} ≺ UNION ≺ AND ≺ OPTIONAL,
// §3) — which its own BE-tree construction presumes when it coalesces
// triple patterns across an OPTIONAL (Figure 5: t1 and t6) — the group's
// required children (BGPs, UNIONs, nested groups) are joined first, in
// order, and the OPTIONAL children are then left-outer-joined, in order.
// For well-designed patterns this coincides with the W3C left-to-right
// fold; for non-well-designed ones it is the Pérez-style semantics the
// paper's Theorems 1–2 assume.
//
// max is the LIMIT push-down: max >= 0 allows the single operation that
// produces the group's returned bag — and only that one — to stop after
// max rows; max < 0 evaluates the group in full. Every upstream child
// still evaluates fully (intermediate bags feed joins and candidate
// derivation), and every capped operator emits a deterministic prefix of
// its uncapped output, so the truncated group result is byte-identical
// to the full result's first max rows.
func (ev *evaluator) groupTop(g *GroupNode, incoming *algebra.Bag, max int) *algebra.Bag {
	if ev.ctx.Err() != nil {
		return algebra.NewBag(ev.width) // discarded: caller reports ctx.Err()
	}
	// Locate the final producing operation: the last left join when
	// OPTIONALs exist, otherwise the operation folding in the last
	// required child.
	lastReq := -1
	hasOpt := false
	for i, child := range g.Children {
		if _, ok := child.(*OptionalNode); ok {
			hasOpt = true
		} else {
			lastReq = i
		}
	}
	childCap := func(i int) int {
		if max >= 0 && !hasOpt && i == lastReq {
			return max
		}
		return -1
	}
	var r *algebra.Bag
	var optionals []*OptionalNode
	for i, child := range g.Children {
		switch child := child.(type) {
		case *GroupNode:
			subCap := -1
			if r == nil {
				subCap = childCap(i) // the subgroup's bag IS the result: push the cap down
			}
			o := ev.groupTop(child, pickContext(r, incoming), subCap)
			r = ev.joinWithTop(r, o, childCap(i))
		case *BGPNode:
			engineCap := -1
			if cap := childCap(i); cap >= 0 && r == nil {
				// The BGP's bag IS the result: the engine stops early.
				engineCap = cap
			}
			o := ev.evalBGP(child, pickContext(r, incoming), engineCap)
			r = ev.joinWithTop(r, o, childCap(i))
		case *UnionNode:
			src := pickContext(r, incoming)
			branches := make([]*algebra.Bag, len(child.Branches))
			for j, br := range child.Branches {
				branches[j] = ev.groupTop(br, src, -1)
			}
			u := algebra.UnionAll(ev.width, branches...)
			if cap := childCap(i); cap >= 0 && r == nil && cap < u.Len() {
				u = u.View(0, cap)
			}
			r = ev.joinWithTop(r, u, childCap(i))
		case *OptionalNode:
			optionals = append(optionals, child)
		}
	}
	if r == nil {
		r = algebra.Unit(ev.width)
	}
	// All OPTIONAL right subtrees see the same candidate-derivation
	// context: candidate sets depend only on the distinct bindings of the
	// left side's certainly-bound variables, which LeftJoin preserves, so
	// deriving from the pre-OPTIONAL bag is indistinguishable from the
	// progressively left-joined bag.
	left := r
	for oi, opt := range optionals {
		o := ev.groupTop(opt.Right, left, -1)
		cap := -1
		if max >= 0 && oi == len(optionals)-1 {
			cap = max // only the final left join produces the result
		}
		r = algebra.LeftJoinWith(r, o, algebra.JoinOpts{
			Stop: ev.cancelled, Max: cap, Pulled: &ev.stats.RowsPulled,
		})
	}
	return r
}

// pickContext chooses the bag from which nested evaluations derive
// candidates: the local partial result when one exists, else the
// incoming context.
func pickContext(r, incoming *algebra.Bag) *algebra.Bag {
	if r != nil {
		return r
	}
	return incoming
}

// cancelled is the probe handed to the algebra's cancellable joins: the
// materialized joins between sibling bags can dwarf any single BGP
// evaluation (a cross product of disconnected BGPs, say), so they must
// observe the context too.
func (ev *evaluator) cancelled() bool { return ev.ctx.Err() != nil }

// joinWithTop folds a child bag into the accumulated result; max >= 0
// caps the join's output (only ever passed for the group's final
// producing operation).
func (ev *evaluator) joinWithTop(r, o *algebra.Bag, max int) *algebra.Bag {
	if r == nil {
		return o
	}
	return algebra.JoinWith(r, o, algebra.JoinOpts{
		Stop: ev.cancelled, Max: max, Pulled: &ev.stats.RowsPulled,
	})
}

// evalBGP evaluates one BGP node through the engine, recording
// instrumentation. src is the candidate-derivation context (see
// pickContext); max >= 0 lets the engine stop at max result rows — only
// sound when the BGP's bag is the group's final result.
//
// Under pruning, an empty context prunes the BGP outright: the engine is
// not called and the BGP yields the empty bag over its variables. That
// context is always either inner-joined with the result of the subtree
// holding the BGP or the left side of a left join over it, so the
// subtree's rows cannot reach the answer. Every nested group, UNION
// branch and OPTIONAL below receives the same empty context, so the rule
// cascades through the whole subtree.
func (ev *evaluator) evalBGP(b *BGPNode, src *algebra.Bag, max int) *algebra.Bag {
	var res *algebra.Bag
	if ev.prune.Enabled && src != nil && src.Len() == 0 {
		ev.stats.PrunedBGPs++
		res = exec.NewBagOver(ev.width, b.Enc.Vars())
	} else {
		cand := ev.deriveCandidates(b, src)
		if cand != nil {
			ev.stats.PrunedBGPs++
		}
		res = ev.engine.EvalBGPTop(ev.ctx, ev.st, b.Enc, ev.width, cand, max, &ev.stats.RowsPulled)
	}
	ev.stats.BGPResults = append(ev.stats.BGPResults, res.Len())
	ev.stats.bgpSizes[b] = res.Len()
	return res
}

// deriveCandidates implements the candidate-setting rule of §6: the
// context's bindings of the variables shared with the BGP become
// candidate sets (the sorted ID lists BindingsOfCapped returns, passed on
// as they are), but only when the candidate set is smaller than the
// threshold (fixed for CP, the estimated BGP result size for full).
// Nested groups receive the context through `incoming` and derive their
// BGPs' candidates from it. An empty context never gets here under
// pruning: evalBGP prunes the BGP instead.
func (ev *evaluator) deriveCandidates(bgp *BGPNode, src *algebra.Bag) exec.Candidates {
	if !ev.prune.Enabled || src == nil {
		return nil
	}
	threshold := ev.thresholdFor(bgp)
	if threshold <= 0 {
		return nil
	}
	var cand exec.Candidates
	for _, v := range bgp.Enc.Vars() {
		if !src.Cert.Has(v) {
			continue // only certainly-bound variables constrain results
		}
		set := algebra.BindingsOfCapped(src, v, threshold)
		if len(set) == 0 {
			continue
		}
		if cand == nil {
			cand = exec.Candidates{}
		}
		cand[v] = set
	}
	return cand
}

// thresholdFor returns the candidate-size threshold for one BGP node.
// In adaptive mode (the full strategy) the threshold is the estimated
// BGP result size — pruning pays off when the candidate set is smaller
// than what the BGP would materialize anyway — but never below the
// dataset-based floor, so that full's pruning is at least as eager as
// CP's. Without estimates the threshold is the fixed/1%-of-triples
// default of §7.1.
func (ev *evaluator) thresholdFor(b *BGPNode) int {
	base := ev.prune.FixedThreshold
	if base <= 0 {
		base = ev.st.NumTriples() / 100
	}
	if ev.prune.Adaptive && b.estValid {
		if est := int(b.estCard); est > base {
			return est
		}
	}
	return base
}
