package exec

import (
	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// scatterScan evaluates a fresh whole-pattern scan over a store with
// more than one shard by fanning the shards out on the store's bounded
// worker pool — each shard materializes its own matches, capped at max
// (the first max global rows come from the first ≤ max rows of every
// shard) — and gathering deterministically: per-shard pull counts are
// summed in shard order and the partial bags recombine by concatenation
// or k-way merge depending on whether the shard key leads the scan
// order. Returns false when the caller must scan sequentially instead:
// st is not sharded, the subject is ground (it routes to one shard), a
// candidate set applies to a pattern variable (probe decisions are
// taken once, against global counts, on the sequential path), or the
// scan is too small to pay for the fan-out.
//
// This is the one shard-aware path in the package. Everything else —
// per-row extension, candidate probes, counts, orders — reads a sharded
// store through the store.Reader surface it implements, whose accessors
// return global ranges in global order and global counts, so sharded
// evaluation is byte-identical to the single-store run by construction.
func scatterScan(st store.Reader, pat Pattern, width int, cand Candidates, poll *ctxPoll, max int, pulled *int) (*algebra.Bag, bool) {
	sh, ok := st.(store.ShardedReader)
	if !ok || sh.NumShards() == 1 || !pat.S.IsVar || pat.Impossible() {
		return nil, false
	}
	for _, v := range pat.Vars() {
		if cand.Set(v) != nil {
			return nil, false
		}
	}
	ord := MatchOrder(sh, pat, neverBound, cand)
	// Fan-out pays fixed costs — per-shard bags, then a copy (concat) or
	// compare (merge) of every row at gather time — so small scans run
	// sequentially. The gate is a pure performance heuristic: both paths
	// produce identical bytes. Merge recombination costs a comparison per
	// row, so it needs a larger scan to win than concatenation does. The
	// table's range size is an upper bound on the rows enumerated (a
	// repeated variable only shrinks the true count).
	minRows := scatterMinConcat
	if ord[0] != pat.S.Var {
		minRows = scatterMinMerge
	}
	if shapeOf(pat, nil).count(sh) < minRows {
		return nil, false
	}
	if max >= 0 && max < minRows {
		// A tight LIMIT cap bounds the sequential scan at max rows; the
		// scatter would pull up to k×max instead.
		return nil, false
	}
	k := sh.NumShards()
	parts := make([]*algebra.Bag, k)
	pulls := make([]int, k)
	stops := make([]bool, k)
	sh.Scatter(func(i int) {
		sub := ctxPoll{ctx: poll.ctx}
		b := algebra.NewBag(width)
		seed := make(algebra.Row, width)
		MatchPattern(sh.Shard(i), pat, seed, cand, func(nr algebra.Row) bool {
			if sub.stopped {
				return false
			}
			b.Append(nr)
			sub.tick()
			return max < 0 || b.Len() < max
		})
		parts[i] = b
		pulls[i] = b.Len()
		stops[i] = sub.stopped
	})
	for _, s := range stops {
		if s {
			poll.stopped = true
		}
	}
	if pulled != nil {
		for _, n := range pulls {
			*pulled += n
		}
	}
	out := newBagOver(width, pat.Vars())
	out.Order = ord
	if ord[0] == pat.S.Var {
		// The shard key is the leading order variable: concatenation in
		// shard order is the global order.
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		if max >= 0 && total > max {
			total = max
		}
		out.Grow(total)
		for _, p := range parts {
			n := p.Len()
			if rem := total - out.Len(); n > rem {
				n = rem
			}
			out.AppendAll(p.View(0, n))
			if out.Len() == total {
				break
			}
		}
	} else {
		algebra.MergeSortedBags(out, parts, ord, max)
	}
	return out, true
}

// Scatter thresholds: minimum (upper-bound) scan sizes below which the
// sequential path beats the fan-out's fixed costs.
const (
	scatterMinConcat = 2048
	scatterMinMerge  = 16384
)
