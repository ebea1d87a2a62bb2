// Package benchbags builds the synthetic join and sort operands shared
// by the algebra micro-benchmarks (BenchmarkJoin, BenchmarkTopK* …) and
// the repository benchmark's kernels (algebra.*_ns_row), so both report
// the same workload and their numbers stay comparable.
package benchbags

import (
	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// JoinPair builds two join operands of n rows each over width 3:
// column 0 is the certain join key (fanout distinct rows per key on
// each side), column 1 is an a-side payload, column 2 a b-side payload.
// Both bags are built key-sorted; ordered selects whether their Order
// property says so (true → the dispatch merge-joins, false → it hash-
// joins the same data).
// SortInput builds the ORDER BY micro-benchmark operand: n rows of
// width 2 whose column 0 holds deterministically scrambled keys (a
// fixed LCG, so every run sorts identical data) and column 1 a unique
// payload. The bag carries no Order claim, so both the full sort and
// the bounded-heap top-k must do real work.
func SortInput(n int) *algebra.Bag {
	b := algebra.NewBag(2)
	for c := 0; c < 2; c++ {
		b.Cert.Set(c)
		b.Maybe.Set(c)
	}
	row := make(algebra.Row, 2)
	seed := uint32(2463534242)
	for i := 0; i < n; i++ {
		seed = seed*1664525 + 1013904223
		row[0] = store.ID(1 + seed%uint32(n))
		row[1] = store.ID(1 + i)
		b.Append(row)
	}
	return b
}

func JoinPair(n, fanout int, ordered bool) (*algebra.Bag, *algebra.Bag) {
	mk := func(payload int) *algebra.Bag {
		b := algebra.NewBag(3)
		b.Cert.Set(0)
		b.Maybe.Set(0)
		b.Cert.Set(payload)
		b.Maybe.Set(payload)
		row := make(algebra.Row, 3)
		for i := 0; i < n; i++ {
			row[0] = store.ID(1 + i/fanout) // ascending keys, fanout dups
			row[payload] = store.ID(1 + i)
			row[3-payload] = store.None
			b.Append(row)
		}
		if ordered {
			b.Order = []int{0, payload}
		}
		return b
	}
	return mk(1), mk(2)
}
