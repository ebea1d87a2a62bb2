package exec

import (
	"context"
	"iter"
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
//   - a two-pattern BGP whose scan orders are directly merge-joinable
//     runs a fully streaming merge join over lazy pattern cursors,
//     pulling index rows only as the next output row demands them;
//   - otherwise the plan materializes as usual and only the final join
//     is capped, so at least the last operator stops early.
//
// All tiers emit in exactly the order the uncapped evaluation would, so
// the result is a byte-identical prefix of EvalBGP's bag.
func (BinaryJoinEngine) EvalBGPTop(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates, max int, pulled *int) *algebra.Bag {
	if len(bgp) == 0 {
		if max == 0 {
			return algebra.NewBag(width)
		}
		return algebra.Unit(width)
	}
	if max == 0 || slices.ContainsFunc(bgp, Pattern.Impossible) {
		return newBagOver(width, bgp.Vars())
	}
	order := greedyOrderWithCands(st, bgp, cand)
	poll := ctxPoll{ctx: ctx}
	if len(order) == 1 {
		return scanPattern(st, bgp[order[0]], width, cand, &poll, max, pulled)
	}
	if max >= 0 && len(order) == 2 && cand == nil {
		if out, ok := streamMergeTop(st, bgp[order[0]], bgp[order[1]], width, &poll, max, pulled); ok {
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
	out := newBagOver(width, pat.Vars())
	out.Order = MatchOrder(st, pat, neverBound, cand)
	seed := make(algebra.Row, width)
	MatchPattern(st, pat, seed, cand, func(nr algebra.Row) bool {
		if poll.stopped {
			return false
		}
		out.Append(nr)
		poll.tick()
		return max < 0 || out.Len() < max
	})
	if pulled != nil {
		*pulled += out.Len()
	}
	return out
}

// patternCursor turns MatchPattern's push enumeration into a lazy pull
// cursor: rows come out one at a time, and dropping the cursor (stop)
// terminates the underlying index scan. Each row is cloned out of the
// scratch buffer so it survives the next pull.
func patternCursor(st store.Reader, pat Pattern, width int) (next func() (algebra.Row, bool), stop func()) {
	return iter.Pull(func(yield func(algebra.Row) bool) {
		seed := make(algebra.Row, width)
		MatchPattern(st, pat, seed, nil, func(nr algebra.Row) bool {
			return yield(slices.Clone(nr))
		})
	})
}

// streamMergeTop is the fully streaming LIMIT push-down fast path: a
// two-pattern merge join over lazy cursors that pulls operand rows only
// while output rows are still owed. It applies when both scans' physical
// orders are directly merge-joinable on every shared variable (so the
// shared variables are exactly the certain join keys of the materialized
// plan and no extra compatibility check is needed), and mirrors
// mergeJoin's a-major group emission exactly, making its capped output
// byte-identical to the materializing path's prefix.
func streamMergeTop(st store.Reader, a, b Pattern, width int, poll *ctxPoll, max int, pulled *int) (*algebra.Bag, bool) {
	var keys []int
	bVars := map[int]bool{}
	for _, v := range b.Vars() {
		bVars[v] = true
	}
	for _, v := range a.Vars() {
		if bVars[v] {
			keys = append(keys, v)
		}
	}
	if len(keys) == 0 {
		return nil, false
	}
	aOrd := MatchOrder(st, a, neverBound, nil)
	bOrd := MatchOrder(st, b, neverBound, nil)
	seq, ok := algebra.MergeJoinableOrders(aOrd, bOrd, keys)
	if !ok {
		return nil, false
	}
	out := newBagOver(width, BGP{a, b}.Vars())
	// Output order claim, mirroring the materialized merge join: the
	// merge sequence, extended by the a-side order tail on slots the b
	// side cannot overwrite.
	ord := slices.Clone(seq)
	if len(aOrd) >= len(seq) && slices.Equal(aOrd[:len(seq)], seq) {
		for _, p := range aOrd[len(seq):] {
			if bVars[p] {
				break
			}
			ord = append(ord, p)
		}
	}
	out.Order = ord

	n := 0
	if pulled != nil {
		defer func() { *pulled += n }()
	}
	nextA, stopA := patternCursor(st, a, width)
	nextB, stopB := patternCursor(st, b, width)
	defer stopA()
	defer stopB()
	pullA := func() (algebra.Row, bool) {
		r, ok := nextA()
		if ok {
			n++
			poll.tick()
		}
		return r, ok
	}
	pullB := func() (algebra.Row, bool) {
		r, ok := nextB()
		if ok {
			n++
			poll.tick()
		}
		return r, ok
	}
	cmpOn := func(x, y algebra.Row, seq []int) int {
		for _, k := range seq {
			switch {
			case x[k] < y[k]:
				return -1
			case x[k] > y[k]:
				return 1
			}
		}
		return 0
	}

	ra, okA := pullA()
	rb, okB := pullB()
	var group []algebra.Row
	for okA && okB && !poll.stopped {
		c := cmpOn(ra, rb, seq)
		if c < 0 {
			ra, okA = pullA()
			continue
		}
		if c > 0 {
			rb, okB = pullB()
			continue
		}
		// Equal keys: buffer the full b group, then emit each matching a
		// row against it a-major — mergeJoin's exact emission order.
		group = append(group[:0], rb)
		for {
			nb, ok2 := pullB()
			if !ok2 {
				okB = false
				break
			}
			if cmpOn(nb, ra, seq) == 0 {
				group = append(group, nb)
				continue
			}
			rb = nb
			break
		}
		key := group[0]
		for okA && cmpOn(ra, key, seq) == 0 && !poll.stopped {
			for _, g := range group {
				out.AppendMerged(ra, g)
				if out.Len() == max {
					return out, true
				}
			}
			ra, okA = pullA()
		}
	}
	return out, true
}

// newBagOver returns an empty bag whose rows certainly bind vars.
func newBagOver(width int, vars []int) *algebra.Bag {
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

// EstimateCard implements Engine via the shared sampling estimator over
// the ascending-size order.
func (BinaryJoinEngine) EstimateCard(ctx context.Context, st store.Reader, bgp BGP) float64 {
	if len(bgp) == 0 {
		return 1
	}
	cards := estimateCards(ctx, st, bgp, greedyOrderWithCands(st, bgp, nil))
	return cards[len(cards)-1]
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
