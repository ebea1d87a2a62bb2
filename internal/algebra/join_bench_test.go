package algebra_test

import (
	"fmt"
	"testing"

	"sparqluo/internal/algebra"
	"sparqluo/internal/benchbags"
	"sparqluo/internal/store"
)

// BenchmarkJoin contrasts the three physical joins on order-compatible
// inputs: the streaming merge join the order-aware dispatch picks when
// both sides are key-sorted, the hash join it falls back to when the
// sort is not known, and the sort+merge path when only one side carries
// its order. allocs/op is the headline: the merge path touches only the
// output arena, while the hash path also builds the key index. The
// operands come from benchbags, which the repository benchmark's join
// kernels (algebra.*_ns_row) draw from too.
func BenchmarkJoin(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, fanout := range []int{1, 4} {
			tag := fmt.Sprintf("n=%d/fanout=%d", n, fanout)
			b.Run("merge/"+tag, func(b *testing.B) {
				x, y := benchbags.JoinPair(n, fanout, true)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					algebra.Join(x, y)
				}
			})
			b.Run("hash/"+tag, func(b *testing.B) {
				x, y := benchbags.JoinPair(n, fanout, false)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					algebra.Join(x, y)
				}
			})
			b.Run("sortmerge/"+tag, func(b *testing.B) {
				x, y := benchbags.JoinPair(n, fanout, true)
				y.Order = nil // one side unsorted: dispatch sorts it to merge
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					algebra.Join(x, y)
				}
			})
		}
	}
}

// BenchmarkLeftJoin mirrors BenchmarkJoin for the OPTIONAL operator.
func BenchmarkLeftJoin(b *testing.B) {
	const n, fanout = 10000, 2
	b.Run("merge", func(b *testing.B) {
		x, y := benchbags.JoinPair(n, fanout, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algebra.LeftJoin(x, y)
		}
	})
	b.Run("hash", func(b *testing.B) {
		x, y := benchbags.JoinPair(n, fanout, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algebra.LeftJoin(x, y)
		}
	})
}

// BenchmarkDistinct measures the arena-hashed dedup (no per-row string
// keys) on a bag with 50% duplicates.
func BenchmarkDistinct(b *testing.B) {
	bag := algebra.NewBag(3)
	bag.Cert.Set(0)
	bag.Maybe.Set(0)
	row := make(algebra.Row, 3)
	for i := 0; i < 10000; i++ {
		row[0] = store.ID(1 + i/2)
		bag.Append(row)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algebra.Distinct(bag)
	}
}

// BenchmarkTopKSortFull vs BenchmarkTopKHeap20: the operator-level pair —
// a full stable sort of n rows against the bounded max-heap keeping 20.
func BenchmarkTopKSortFull(b *testing.B) {
	in := benchbags.SortInput(100000)
	keys := []algebra.SortKey{{Col: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algebra.SortByKeys(in, keys)
	}
}

func BenchmarkTopKHeap20(b *testing.B) {
	in := benchbags.SortInput(100000)
	keys := []algebra.SortKey{{Col: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algebra.TopK(in, keys, 20)
	}
}

// BenchmarkTopKMergeJoin20: early termination inside the streaming
// merge join — the capped join touches a prefix of both operands.
func BenchmarkTopKMergeJoin20(b *testing.B) {
	x, y := benchbags.JoinPair(10000, 4, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algebra.JoinWith(x, y, algebra.JoinOpts{Max: 20})
	}
}
