package exec

import (
	"context"
	"slices"

	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// WCOEngine evaluates BGPs in the style of gStore's worst-case-optimal
// join (§5.1.2): one triple pattern is matched at a time, extending each
// partial mapping through the permutation indexes before the next one is
// drawn, so no intermediate result is ever materialized.
type WCOEngine struct{}

// Name implements Engine.
func (WCOEngine) Name() string { return "wco" }

// EvalBGP implements Engine by vertex extension along a greedy join order.
// Cancellation is polled between row extensions so that worst-case joins
// abort promptly; the truncated bag is only observed by callers that
// ignore ctx.Err().
//
// The extension runs depth-first (see extend), so no level of partial
// mappings is ever built, and the result reports the physical order that
// falls out of the walk: every step enumerates its index range ascending
// within each parent row, so the concatenated per-step MatchOrder
// sequences are a lexicographic sort of the output — the "interesting
// order" the order-aware joins downstream consume.
func (e WCOEngine) EvalBGP(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates) *algebra.Bag {
	return e.EvalBGPTop(ctx, st, bgp, width, cand, -1, nil)
}

// EvalBGPTop implements Engine with LIMIT push-down: the depth-first
// extension stops at every level as soon as max rows exist. Its emission
// order is deterministic, so the capped bag is a byte-identical prefix
// of the full result. pulled accumulates the matches drawn at every
// level, the engine's work metric.
func (WCOEngine) EvalBGPTop(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates, max int, pulled *int) *algebra.Bag {
	if max == 0 || slices.ContainsFunc(bgp, Pattern.Impossible) {
		return NewBagOver(width, bgp.Vars())
	}
	pats := make([]Pattern, len(bgp))
	for i, idx := range greedyOrderWithCands(st, bgp, cand) {
		pats[i] = bgp[idx]
	}
	poll := ctxPoll{ctx: ctx}
	out := extend(st, pats, width, cand, &poll, max, pulled)
	if out.Len() > 0 {
		out.Order = extensionOrder(st, pats, cand)
	}
	return out
}

// extensionOrder is the order claim of a depth-first extension through
// pats: the concatenation of the per-step MatchOrder sequences. It is
// only claimable while every step reports one: a step that binds a
// variable in unknown order scrambles the suffix, and nothing is claimed.
func extensionOrder(st store.Reader, pats []Pattern, cand Candidates) []int {
	boundVars := make(map[int]bool)
	bound := func(v int) bool { return boundVars[v] }
	var ord []int
	for _, pat := range pats {
		step := MatchOrder(st, pat, bound, cand)
		if step == nil && slices.ContainsFunc(pat.Vars(), func(v int) bool { return !boundVars[v] }) {
			return nil
		}
		ord = append(ord, step...)
		for _, v := range pat.Vars() {
			boundVars[v] = true
		}
	}
	return ord
}

// EstimateCard implements Engine via the shared sampling estimator.
func (WCOEngine) EstimateCard(ctx context.Context, st store.Reader, bgp BGP) float64 {
	return estimateCard(ctx, st, bgp)
}

// EstimateCost implements Engine with the WCO-join cost formula:
//
//	cost(WCOJoin({v1..vk-1}, vk)) = card({v1..vk-1}) × min_i avg_size(vi, p)
//
// summed over the extension steps of the greedy order. The first pattern's
// cost is its scan size.
func (WCOEngine) EstimateCost(ctx context.Context, st store.Reader, bgp BGP) float64 {
	if len(bgp) == 0 {
		return 0
	}
	order := greedyOrderWithCands(st, bgp, nil)
	cards := estimateCards(ctx, st, bgp, order)
	stats := st.Stats()
	cost := float64(ExactCount(st, bgp[order[0]]))
	bound := map[int]bool{}
	for _, v := range bgp[order[0]].Vars() {
		bound[v] = true
	}
	for k := 1; k < len(order); k++ {
		pat := bgp[order[k]]
		avg := avgExtensionSize(stats, pat, bound)
		cost += cards[k-1] * avg
		for _, v := range pat.Vars() {
			bound[v] = true
		}
	}
	return cost
}

// avgExtensionSize returns min over already-bound vertices vi of
// average_size(vi, p): the average number of edges with the pattern's
// predicate incident on vi in the direction the pattern uses. When the
// predicate is itself a variable or no endpoint is bound, it falls back to
// the overall average degree.
func avgExtensionSize(stats *store.Stats, pat Pattern, bound map[int]bool) float64 {
	var p store.ID
	if !pat.P.IsVar {
		p = pat.P.ID
	}
	best := -1.0
	consider := func(v float64) {
		if best < 0 || v < best {
			best = v
		}
	}
	if pat.S.IsVar && bound[pat.S.Var] || !pat.S.IsVar {
		if p != store.None {
			consider(stats.AvgOutDegree(p))
		}
	}
	if pat.O.IsVar && bound[pat.O.Var] || !pat.O.IsVar {
		if p != store.None {
			consider(stats.AvgInDegree(p))
		}
	}
	if best < 0 {
		// Disconnected extension: effectively a scan of the predicate.
		if p != store.None {
			return float64(stats.PredCount[p])
		}
		return float64(stats.NumTriples)
	}
	return best
}
