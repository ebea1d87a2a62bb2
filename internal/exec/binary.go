package exec

import (
	"context"
	"slices"

	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// BinaryJoinEngine evaluates BGPs in the style of Jena (§5.1.2): every
// triple pattern is scanned into a bag of mappings, then the bags are
// combined with binary hash joins, smallest first.
type BinaryJoinEngine struct{}

// Name implements Engine.
func (BinaryJoinEngine) Name() string { return "binary" }

// EvalBGP implements Engine with left-deep hash joins over per-pattern
// scans ordered by ascending scan size, preferring connected patterns to
// avoid cartesian products. Cancellation is polled during scans and
// between joins; a cancelled call may return a truncated bag, which only
// callers ignoring ctx.Err() observe.
func (e BinaryJoinEngine) EvalBGP(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates) *algebra.Bag {
	return e.EvalBGPTop(ctx, st, bgp, width, cand, -1, nil)
}

// EvalBGPTop implements Engine with LIMIT push-down. Three escalating
// early-termination tiers apply when max >= 0:
//
//   - a single-pattern BGP stops its index scan at max emitted rows;
//   - a two-pattern BGP without candidates whose scan orders are directly
//     merge-joinable on the shared variables runs the depth-first
//     extension instead of the merge join: the bound-key access reads the
//     same permutation run, in the same order, as the merge join's
//     equal-key group, so it emits the join's rows in the join's order
//     and stops at every level once max rows exist;
//   - otherwise the plan materializes as usual and only the final join
//     is capped, so at least the last operator stops early.
//
// All tiers emit in exactly the order the uncapped evaluation would, so
// the result is a byte-identical prefix of EvalBGP's bag.
func (BinaryJoinEngine) EvalBGPTop(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates, max int, pulled *int) *algebra.Bag {
	if max == 0 || slices.ContainsFunc(bgp, Pattern.Impossible) {
		return NewBagOver(width, bgp.Vars())
	}
	if len(bgp) == 0 {
		return algebra.Unit(width)
	}
	order := greedyOrderWithCands(st, bgp, cand)
	poll := ctxPoll{ctx: ctx}
	if len(order) == 1 {
		return scanPattern(st, bgp[order[0]], width, cand, &poll, max, pulled)
	}
	if max >= 0 && len(order) == 2 && cand == nil {
		a, b := bgp[order[0]], bgp[order[1]]
		if ord, ok := mergeJoinOrder(st, a, b); ok {
			out := extend(st, []Pattern{a, b}, width, nil, &poll, max, pulled)
			out.Order = ord
			return out
		}
	}
	acc := scanPattern(st, bgp[order[0]], width, cand, &poll, -1, pulled)
	for k, idx := range order[1:] {
		if poll.done() {
			return acc
		}
		if acc.Len() == 0 {
			// Joining with the empty bag stays empty; still mark vars.
			for _, v := range bgp[idx].Vars() {
				acc.Cert.Set(v)
				acc.Maybe.Set(v)
			}
			continue
		}
		// Only the final join produces result rows, so only it may stop
		// at max; intermediate joins must run to completion.
		cap := -1
		if k == len(order)-2 {
			cap = max
		}
		acc = algebra.JoinWith(acc, scanPattern(st, bgp[idx], width, cand, &poll, -1, pulled),
			algebra.JoinOpts{Stop: poll.done, Max: cap, Pulled: pulled})
	}
	return acc
}

// scanPattern materializes matches of a single pattern into a bag,
// reporting the physical order the permutation scan produced — the
// zero-cost "interesting order" the order-aware joins dispatch on.
// max >= 0 stops the index scan after max emitted rows; pulled, when
// non-nil, accumulates the number of rows the scan drew.
func scanPattern(st store.Reader, pat Pattern, width int, cand Candidates, poll *ctxPoll, max int, pulled *int) *algebra.Bag {
	out := extend(st, []Pattern{pat}, width, cand, poll, max, pulled)
	out.Order = MatchOrder(st, pat, neverBound, cand)
	return out
}

// mergeJoinOrder reports whether the scans of a and b are directly
// merge-joinable on every shared variable (so the shared variables are
// exactly the certain join keys of the materialized plan), and returns
// the order the materialized merge join's output claims: the merge
// sequence, extended by the a-side order tail on slots b cannot
// overwrite.
func mergeJoinOrder(st store.Reader, a, b Pattern) ([]int, bool) {
	bVars := b.Vars()
	var keys []int
	for _, v := range a.Vars() {
		if slices.Contains(bVars, v) {
			keys = append(keys, v)
		}
	}
	if len(keys) == 0 {
		return nil, false
	}
	aOrd := MatchOrder(st, a, neverBound, nil)
	seq, ok := algebra.MergeJoinableOrders(aOrd, MatchOrder(st, b, neverBound, nil), keys)
	if !ok {
		return nil, false
	}
	ord := slices.Clone(seq)
	if len(aOrd) >= len(seq) && slices.Equal(aOrd[:len(seq)], seq) {
		for _, p := range aOrd[len(seq):] {
			if slices.Contains(bVars, p) {
				break
			}
			ord = append(ord, p)
		}
	}
	return ord, true
}

// NewBagOver returns an empty bag whose rows certainly bind vars: the
// result of a BGP over vars that matches nothing.
func NewBagOver(width int, vars []int) *algebra.Bag {
	out := algebra.NewBag(width)
	for _, v := range vars {
		out.Cert.Set(v)
		out.Maybe.Set(v)
	}
	return out
}

// neverBound is the bound predicate of a fresh scan: no variable carries
// a prior binding.
func neverBound(int) bool { return false }

// EstimateCard implements Engine via the shared sampling estimator.
func (BinaryJoinEngine) EstimateCard(ctx context.Context, st store.Reader, bgp BGP) float64 {
	return estimateCard(ctx, st, bgp)
}

// EstimateCost implements Engine with the binary-join cost formula
// (Equation 9):
//
//	cost(BinaryJoin(V1, V2)) = 2·min(card(V1), card(V2)) + max(card(V1), card(V2))
//
// summed over a left-deep join in ascending scan-size order, using the
// sampling estimator for the accumulated side.
//
// The model is order-aware: a step whose operands share a sorted prefix
// covering the join keys runs as a streaming merge join at execution
// time, skipping the hash-build pass over the smaller side, so its cost
// is min + max instead of 2·min + max.
func (BinaryJoinEngine) EstimateCost(ctx context.Context, st store.Reader, bgp BGP) float64 {
	if len(bgp) == 0 {
		return 0
	}
	order := greedyOrderWithCands(st, bgp, nil)
	cards := estimateCards(ctx, st, bgp, order)
	cost := float64(ExactCount(st, bgp[order[0]]))
	accOrder := MatchOrder(st, bgp[order[0]], neverBound, nil)
	accVars := map[int]bool{}
	for _, v := range bgp[order[0]].Vars() {
		accVars[v] = true
	}
	for k := 1; k < len(order); k++ {
		pat := bgp[order[k]]
		left := cards[k-1]
		right := float64(ExactCount(st, pat))
		lo, hi := left, right
		if lo > hi {
			lo, hi = hi, lo
		}
		var keys []int
		for _, v := range pat.Vars() {
			if accVars[v] {
				keys = append(keys, v)
			}
		}
		scanOrder := MatchOrder(st, pat, neverBound, nil)
		if seq, ok := algebra.MergeJoinableOrders(accOrder, scanOrder, keys); ok && len(keys) > 0 {
			cost += lo + hi // streaming merge: no hash-build pass
			accOrder = seq
		} else {
			cost += 2*lo + hi
			// A hash join's probe-major output order depends on which
			// side is larger at run time; claim nothing downstream.
			accOrder = nil
		}
		for _, v := range pat.Vars() {
			accVars[v] = true
		}
	}
	return cost
}
