package exec

import (
	"context"
	"slices"

	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// Engine evaluates a BGP against a store and estimates result sizes and
// execution costs, in the sense of §5.1.2. Implementations must be safe
// for concurrent use.
type Engine interface {
	// Name identifies the engine ("wco" or "binary").
	Name() string
	// EvalBGP returns the bag of mappings of the BGP over the store,
	// honoring candidate sets when non-nil. width is the query-wide
	// number of variables. Implementations poll ctx periodically during
	// long joins and may return a truncated bag once it is cancelled;
	// callers that pass a cancellable context must check ctx.Err()
	// before trusting the result.
	EvalBGP(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates) *algebra.Bag
	// EvalBGPTop is EvalBGP with LIMIT push-down: when max >= 0 the
	// engine may stop as soon as max result rows exist, and the rows it
	// returns must be exactly the first max rows EvalBGP would produce
	// (every engine emits in a deterministic physical order, so the
	// capped result is a prefix of the full one). max < 0 disables the
	// cap and the call is equivalent to EvalBGP. pulled, when non-nil,
	// accumulates the number of index/operand rows the evaluation drew —
	// the early-termination metric surfaced in EvalStats.
	EvalBGPTop(ctx context.Context, st store.Reader, bgp BGP, width int, cand Candidates, max int, pulled *int) *algebra.Bag
	// EstimateCard estimates |res(BGP)| using the sampling-based
	// cardinality estimator of §5.1.2. A cancelled ctx truncates the
	// sampling walk; the estimate is then meaningless and the caller is
	// expected to abandon the plan.
	EstimateCard(ctx context.Context, st store.Reader, bgp BGP) float64
	// EstimateCost estimates the engine-specific execution cost of the
	// BGP (WCO-join cost or binary-join cost), under the same
	// cancellation contract as EstimateCard.
	EstimateCost(ctx context.Context, st store.Reader, bgp BGP) float64
}

// sampleSize caps the number of partial results carried by the sampling
// cardinality estimator.
const sampleSize = 64

// cancelCheckMask controls how often the engines poll the context during
// row production: every (cancelCheckMask+1) produced rows. Polling per
// row would dominate tight extension loops; a power-of-two batch keeps
// the check to a single AND on the hot path.
const cancelCheckMask = 2047

// ctxPoll batches context cancellation checks. Engines call tick() per
// produced row and done() between loop strata; both report true once the
// context is cancelled.
type ctxPoll struct {
	ctx      context.Context
	produced int
	stopped  bool
}

func (c *ctxPoll) tick() bool {
	c.produced++
	if c.produced&cancelCheckMask == 0 && c.ctx.Err() != nil {
		c.stopped = true
	}
	return c.stopped
}

func (c *ctxPoll) done() bool {
	if !c.stopped && c.ctx.Err() != nil {
		c.stopped = true
	}
	return c.stopped
}

// extend evaluates pats depth-first, the one extension loop both engines
// run: each match of pats[k] is extended through pats[k+1] with
// MatchPattern before the next match is drawn, and every complete row is
// appended to the returned bag (no patterns: the unit mapping). Rows
// come out in the lexicographic order of the per-step match indexes —
// the order a level-by-level extension produces — and no intermediate
// level is built. Every level stops once max rows exist (max < 0: no
// cap), or once poll sees cancellation. pulled, when non-nil,
// accumulates the matches drawn at every level.
//
// A one-pattern call (every binary-engine scan, every one-pattern WCO
// BGP) allocates its arena once, at the row count scanRows reads off
// the index, whenever it can; every other call grows the arena by
// doubling.
func extend(st store.Reader, pats []Pattern, width int, cand Candidates, poll *ctxPoll, max int, pulled *int) *algebra.Bag {
	out := NewBagOver(width, BGP(pats).Vars())
	if len(pats) == 1 {
		out.Grow(scanRows(st, pats[0], cand, max))
	}
	done := func() bool { return poll.stopped || max >= 0 && out.Len() >= max }
	var walk func(k int, row algebra.Row)
	walk = func(k int, row algebra.Row) {
		if k == len(pats) {
			out.Append(row)
			return
		}
		MatchPattern(st, pats[k], row, cand, func(nr algebra.Row) bool {
			if pulled != nil {
				*pulled++
			}
			poll.tick()
			walk(k+1, nr)
			return !done()
		})
	}
	walk(0, make(algebra.Row, width))
	return out
}

// scanRows is the number of rows a scan of pat from the empty row emits,
// capped at max (max < 0: no cap), when the index says so up front: the
// size of the range the pattern's shape selects, the count
// greedyOrderWithCands ranks the pattern by. A repeated variable filters
// the range, and a candidate set on a pattern variable filters it or
// replaces it with a probe, so for those scanRows reports 0 rather than
// enumerate to find out.
func scanRows(st store.Reader, pat Pattern, cand Candidates, max int) int {
	sh := shapeOf(pat, nil)
	if repeatedVar(pat) || candsOf(pat, sh, cand).restricted != [3]bool{} {
		return 0
	}
	n := sh.count(st)
	if max >= 0 && max < n {
		n = max
	}
	return n
}

// estimateCard is both engines' EstimateCard: the sampling estimator's
// last step along the greedy order.
func estimateCard(ctx context.Context, st store.Reader, bgp BGP) float64 {
	if len(bgp) == 0 {
		return 1
	}
	cards := estimateCards(ctx, st, bgp, greedyOrderWithCands(st, bgp, nil))
	return cards[len(cards)-1]
}

// estimateCards implements the paper's shared cardinality estimation:
// exact counts for single triple patterns, then for each added pattern a
// sample of the current partial results is extended and the estimate
// scaled by #extend/#sample (floored at 1). It walks the patterns in the
// given order and returns the per-step cardinalities: cards[k] estimates
// the result size after joining patterns order[0..k]. Each sample-row
// extension can scan a large index range, so cancellation is polled
// between rows; a truncated walk leaves the remaining cards at their
// zero value, which callers discard along with the cancelled plan.
func estimateCards(ctx context.Context, st store.Reader, bgp BGP, order []int) []float64 {
	width := bgp.width()
	cards := make([]float64, len(order))
	var sample []algebra.Row
	card := 0.0
	for k, idx := range order {
		pat := bgp[idx]
		if k == 0 {
			card = float64(ExactCount(st, pat))
			sample = sampleSingle(st, pat, width)
		} else {
			extended := 0
			var next []algebra.Row
			for _, r := range sample {
				if ctx.Err() != nil {
					return cards
				}
				MatchPattern(st, pat, r, nil, func(nr algebra.Row) bool {
					extended++
					if len(next) < sampleSize {
						// nr is MatchPattern's scratch buffer; copy to retain.
						next = append(next, slices.Clone(nr))
					}
					return true
				})
			}
			if len(sample) == 0 {
				card = 0
			} else {
				card = card * float64(extended) / float64(len(sample))
				if card < 1 {
					card = 1
				}
			}
			sample = next
		}
		cards[k] = card
	}
	return cards
}

// sampleSingle collects the first sampleSize matches of a single pattern,
// stopping the scan there.
func sampleSingle(st store.Reader, pat Pattern, width int) []algebra.Row {
	var out []algebra.Row
	seed := make(algebra.Row, width)
	MatchPattern(st, pat, seed, nil, func(nr algebra.Row) bool {
		// nr is MatchPattern's scratch buffer; copy to retain.
		out = append(out, slices.Clone(nr))
		return len(out) < sampleSize
	})
	return out
}

// greedyOrderWithCands is the join order both engines evaluate and
// estimate along: start from the pattern with the smallest exact count,
// then repeatedly append the connected pattern (sharing a variable with
// the chosen set) with the smallest exact count, falling back to the
// globally smallest remaining pattern when the BGP is disconnected; ties
// go to the lower pattern index. A pattern whose variable has a
// candidate set is treated as more selective: candidate sets bound the
// scan, so starting from them realizes the pruning of §6. Estimators
// pass nil candidates.
func greedyOrderWithCands(st store.Reader, bgp BGP, cand Candidates) []int {
	n := len(bgp)
	counts := make([]int, n)
	for i, p := range bgp {
		c := ExactCount(st, p)
		for _, v := range p.Vars() {
			if set := cand[v]; set != nil && len(set) < c {
				c = len(set)
			}
		}
		counts[i] = c
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[int]bool{}
	for len(order) < n {
		best, bestCount, bestConn := -1, 0, false
		for i := range bgp {
			if used[i] {
				continue
			}
			conn := len(order) == 0
			for _, v := range bgp[i].Vars() {
				if bound[v] {
					conn = true
					break
				}
			}
			if best == -1 || (conn && !bestConn) || (conn == bestConn && counts[i] < bestCount) {
				best, bestCount, bestConn = i, counts[i], conn
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range bgp[best].Vars() {
			bound[v] = true
		}
	}
	return order
}
