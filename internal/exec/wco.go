package exec

import (
	"context"
	"slices"

	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// WCOEngine evaluates BGPs in the style of gStore's worst-case-optimal
// join (§5.1.2): one triple pattern is matched at a time, extending every
// partial mapping through the permutation indexes, so intermediate results
// never exceed the true prefix result sizes.
type WCOEngine struct{}

// Name implements Engine.
func (WCOEngine) Name() string { return "wco" }

// EvalBGP implements Engine by vertex extension along a greedy join order.
// Cancellation is polled between row extensions so that worst-case joins
// abort promptly; the truncated bag is only observed by callers that
// ignore ctx.Err().
//
// Each level of partial mappings lives in a flat bag arena, and the
// result reports the physical order that falls out of the extension
// walk: every step enumerates its index range ascending within each
// parent row, so the concatenated per-step MatchOrder sequences are a
// lexicographic sort of the output — the "interesting order" the
// order-aware joins downstream consume.
func (e WCOEngine) EvalBGP(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates) *algebra.Bag {
	return e.EvalBGPTop(ctx, st, bgp, width, cand, -1, nil)
}

// EvalBGPTop implements Engine with LIMIT push-down. The vertex
// extension keeps intermediate levels complete — every partial mapping
// may still be needed to produce the first max results — but the final
// extension level stops as soon as max rows exist: its emission order
// is deterministic, so the capped bag is a byte-identical prefix of the
// full result. pulled accumulates the rows appended across all levels,
// the engine's work metric.
func (WCOEngine) EvalBGPTop(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates, max int, pulled *int) *algebra.Bag {
	out := newBagOver(width, bgp.Vars())
	if len(bgp) == 0 {
		if max != 0 {
			out.TakeRows(algebra.Unit(width))
		}
		return out
	}
	if max == 0 || slices.ContainsFunc(bgp, Pattern.Impossible) {
		return out
	}
	n := 0
	if pulled != nil {
		defer func() { *pulled += n }()
	}
	order := greedyOrderWithCands(st, bgp, cand)
	poll := ctxPoll{ctx: ctx}
	var rows *algebra.Bag
	boundVars := make(map[int]bool)
	bound := func(v int) bool { return boundVars[v] }
	var ord []int
	ordValid := true
	for li, idx := range order {
		pat := bgp[idx]
		levelMax := -1
		if li == len(order)-1 {
			levelMax = max // only the final level produces result rows
		}
		var next *algebra.Bag
		if li == 0 {
			// The seed level extends the unit mapping: a fresh whole-pattern
			// scan, shared with the binary engine.
			next = scanPattern(st, pat, width, cand, &poll, levelMax, &n)
		} else {
			next = algebra.NewBag(width)
			full := func() bool { return levelMax >= 0 && next.Len() >= levelMax }
			for i := 0; i < rows.Len(); i++ {
				MatchPattern(st, pat, rows.Row(i), cand, func(nr algebra.Row) bool {
					if poll.stopped {
						return false // cancelled mid-scan: stop accumulating
					}
					next.Append(nr)
					n++
					poll.tick()
					return !full()
				})
				if poll.stopped || full() {
					break
				}
			}
		}
		// An order is only claimable while every step so far reported
		// one: a step with unknown emission order scrambles the suffix.
		if ordValid {
			step := next.Order
			if li > 0 {
				step = MatchOrder(st, pat, bound, cand)
			}
			if step == nil && len(seqVars(pat, bound)) > 0 {
				ord, ordValid = nil, false
			} else {
				ord = append(ord, step...)
			}
		}
		if poll.done() {
			return out
		}
		for _, v := range pat.Vars() {
			boundVars[v] = true
		}
		rows = next
		if rows.Len() == 0 {
			return out
		}
	}
	out.TakeRows(rows)
	out.Order = ord
	return out
}

// seqVars returns the pattern's variables not yet bound — the variables
// an extension step newly binds.
func seqVars(pat Pattern, bound func(int) bool) []int {
	var out []int
	for _, v := range pat.Vars() {
		if !bound(v) {
			out = append(out, v)
		}
	}
	return out
}

// EstimateCard implements Engine via the shared sampling estimator.
func (WCOEngine) EstimateCard(ctx context.Context, st store.Reader, bgp BGP) float64 {
	if len(bgp) == 0 {
		return 1
	}
	cards := estimateCards(ctx, st, bgp, greedyOrderWithCands(st, bgp, nil))
	return cards[len(cards)-1]
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
