package algebra

import (
	"slices"

	"sparqluo/internal/store"
)

// Join computes Ω1 ⋈ Ω2 = {µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ∼ µ2} under bag
// semantics. The join keys are the variables certainly bound on both
// sides; full compatibility is verified on the remaining possibly-shared
// positions. Physical operator choice is order-aware:
//
//   - when both operands are sorted by a shared prefix covering the keys
//     (or can be, by sorting the smaller side), a streaming sort-merge
//     join runs over the arenas;
//   - otherwise the smaller side is hash-partitioned on the keys and the
//     larger side probes it;
//   - with no certain key, a nested loop verifies compatibility.
func Join(a, b *Bag) *Bag { return JoinWith(a, b, JoinOpts{Max: -1}) }

// JoinOpts configures one JoinWith/LeftJoinWith execution.
type JoinOpts struct {
	// Stop is the cancellation probe, polled in batches; nil never stops.
	Stop func() bool
	// Max caps the output at its first Max rows. Every physical join path
	// emits in a deterministic order, so the capped output is exactly the
	// prefix of the uncapped output — the soundness basis for LIMIT
	// push-down. Max < 0 means unlimited; 0 yields the empty bag without
	// touching the operands.
	Max int
	// Pulled, when non-nil, accumulates the number of operand rows the
	// join drew: each cursor advance of a merge join, each build and
	// probe row of a hash join, each inner-loop visit of a nested loop.
	// Early termination shows up directly as a smaller count.
	Pulled *int
}

// joinLimit is the per-execution state behind JoinOpts: a row budget
// plus a locally-accumulated pull counter flushed to opts.Pulled once.
type joinLimit struct {
	max    int // output rows allowed; -1 unlimited
	pulled int
}

// full reports whether the output has reached the cap.
func (l *joinLimit) full(out *Bag) bool { return out.rows == l.max }

// joinStopMask batches cancellation probes in the cancellable joins:
// stop is polled once per (joinStopMask+1) inner-loop iterations, keeping
// the hot path to a counter AND.
const joinStopMask = 2047

// batchStop wraps a cancellation probe so it is only consulted every
// (joinStopMask+1) calls. A nil stop gets a constant-false closure,
// keeping the non-cancellable Join/LeftJoin hot loops free of the
// counter bookkeeping.
func batchStop(stop func() bool) func() bool {
	if stop == nil {
		return never
	}
	steps := 0
	return func() bool {
		steps++
		return steps&joinStopMask == 0 && stop()
	}
}

func never() bool { return false }

// JoinWith is the fully-configurable join: Join with a cancellation
// probe, an output cap and a pulled-rows counter (see JoinOpts). When
// the probe aborts the join the bag built so far is returned; callers
// own the decision to discard the truncated result.
func JoinWith(a, b *Bag, opts JoinOpts) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.Or(b.Cert)
	out.Maybe = a.Maybe.Or(b.Maybe)
	if a.Len() == 0 || b.Len() == 0 || opts.Max == 0 {
		return out
	}
	keys := a.Cert.And(b.Cert).Indices(a.Width)
	verify := verifyPositions(a, b, keys)
	stopped := batchStop(opts.Stop)
	lim := joinLimit{max: opts.Max}
	if opts.Pulled != nil {
		defer func() { *opts.Pulled += lim.pulled }()
	}

	if len(keys) == 0 {
		// No certain join key: nested loop with compatibility check.
		out.Order = orderPrefixNotIn(a.Order, b.Maybe)
		for i := 0; i < a.rows; i++ {
			ra := a.Row(i)
			for j := 0; j < b.rows; j++ {
				lim.pulled++
				if Compatible(ra, b.Row(j), verify) {
					out.AppendMerged(ra, b.Row(j))
					if lim.full(out) {
						return out
					}
				}
				if stopped() {
					return out
				}
			}
		}
		return out
	}
	if sa, sb, seq, ok := mergePlan(a, b, keys); ok {
		out.Order = mergedOrder(sa.Order, seq, sb.Maybe)
		mergeJoin(out, sa, sb, seq, verify, stopped, &lim)
		return out
	}
	hashJoin(out, a, b, keys, verify, stopped, hashKey, &lim)
	return out
}

// mergePlan decides whether an order-aware merge join applies. Both
// operands sorted by the same key-covering prefix merge directly; when
// only one side is sorted (or they are sorted by different key
// sequences), the smaller side is re-sorted to match; a bag of at most
// one row is trivially sorted by any sequence. Operands are never
// mutated — re-sorting copies. The returned operands keep the (a, b)
// orientation of the caller.
func mergePlan(a, b *Bag, keys []int) (sa, sb *Bag, seq []int, ok bool) {
	seqA, okA := keyPrefixCovers(a.Order, keys)
	seqB, okB := keyPrefixCovers(b.Order, keys)
	wildA, wildB := a.rows <= 1, b.rows <= 1
	switch {
	case wildA && wildB:
		return a, b, keys, true
	case wildA && okB:
		return a, b, seqB, true
	case wildB && okA:
		return a, b, seqA, true
	case okA && okB:
		if slices.Equal(seqA, seqB) {
			return a, b, seqA, true
		}
		if b.rows <= a.rows {
			return a, SortBy(b, seqA), seqA, true
		}
		return SortBy(a, seqB), b, seqB, true
	case okA:
		if b.rows <= a.rows {
			return a, SortBy(b, seqA), seqA, true
		}
	case okB:
		if a.rows <= b.rows {
			return SortBy(a, seqB), b, seqB, true
		}
	}
	return nil, nil, nil, false
}

// mergeJoin streams two bags sorted by seq with one synchronized pass:
// equal-key groups are located by advancing two cursors and their cross
// product is emitted a-major, preserving (µ1, µ2) orientation. Key
// equality is established by comparison — no hash, no collisions.
func mergeJoin(out *Bag, a, b *Bag, seq, verify []int, stopped func() bool, lim *joinLimit) {
	i, j := 0, 0
	for i < a.rows && j < b.rows {
		c := compareOn(a.Row(i), b.Row(j), seq)
		if c != 0 {
			if c < 0 {
				i++
			} else {
				j++
			}
			lim.pulled++
			if stopped() {
				return
			}
			continue
		}
		i2, j2 := groupEnd(a, i, seq), groupEnd(b, j, seq)
		// Each operand row of the two key groups is pulled once.
		lim.pulled += (i2 - i) + (j2 - j)
		for x := i; x < i2; x++ {
			rx := a.Row(x)
			for y := j; y < j2; y++ {
				if Compatible(rx, b.Row(y), verify) {
					out.AppendMerged(rx, b.Row(y))
					if lim.full(out) {
						return
					}
				}
				if stopped() {
					return
				}
			}
		}
		i, j = i2, j2
	}
}

// groupEnd returns the end of the run of rows equal to Row(i) on seq.
func groupEnd(b *Bag, i int, seq []int) int {
	r := b.Row(i)
	j := i + 1
	for j < b.rows && equalOn(r, b.Row(j), seq) {
		j++
	}
	return j
}

// hashJoin is the fallback physical join: the smaller side is bucketed
// by key hash, the larger side probes. Probes verify key equality by
// comparison — a hash collision on the key columns must not pair rows
// with different keys — before checking the non-key shared positions.
func hashJoin(out *Bag, a, b *Bag, keys, verify []int, stopped func() bool, hash keyHashFn, lim *joinLimit) {
	// Keep a as the probe (outer) side, b as the build side; swap so the
	// smaller side is built.
	build, probe := b, a
	if a.rows < b.rows {
		build, probe = a, b
	}
	// Probe-major emission carries the probe side's order on the slots
	// the build side cannot overwrite.
	out.Order = orderPrefixNotIn(probe.Order, build.Maybe)
	probeIsA := probe == a
	idx := buildHash(build, keys, hash)
	lim.pulled += build.rows // the build pass reads every build row
	for i := 0; i < probe.rows; i++ {
		rp := probe.Row(i)
		lim.pulled++
		for _, bi := range idx[hash(rp, keys)] {
			rb := build.Row(int(bi))
			if equalOn(rp, rb, keys) && Compatible(rp, rb, verify) {
				// Preserve (µ1, µ2) orientation: merge a-side first.
				if probeIsA {
					out.AppendMerged(rp, rb)
				} else {
					out.AppendMerged(rb, rp)
				}
				if lim.full(out) {
					return
				}
			}
			// Poll per build-row visit: one skewed hash bucket can hold
			// most of the build side, so per-probe-row polling would let
			// a cancelled join run a bucket to completion.
			if stopped() {
				return
			}
		}
		if stopped() {
			return
		}
	}
}

// Union computes Ω1 ∪bag Ω2, concatenating the two bags.
func Union(a, b *Bag) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.And(b.Cert)
	out.Maybe = a.Maybe.Or(b.Maybe)
	if a.Len() == 0 {
		out.Cert = b.Cert.Clone()
		out.Order = slices.Clone(b.Order)
	}
	if b.Len() == 0 {
		out.Cert = a.Cert.Clone()
		out.Order = slices.Clone(a.Order)
	}
	out.Grow(a.Len() + b.Len())
	out.AppendAll(a)
	out.AppendAll(b)
	return out
}

// UnionAll folds Union over several bags.
func UnionAll(width int, bags ...*Bag) *Bag {
	if len(bags) == 0 {
		return NewBag(width)
	}
	out := bags[0]
	for _, b := range bags[1:] {
		out = Union(out, b)
	}
	return out
}

// Diff computes Ω1 \ Ω2 = {µ1 ∈ Ω1 | ∀µ2 ∈ Ω2 : µ1 ≁ µ2}. With certain
// keys on both sides a compatible µ2 must agree with µ1 on every key, so
// the scan anti-joins through the same merge/hash machinery as Join; the
// nested loop remains only for the keyless case. The output is a
// subsequence of Ω1 and keeps its physical order.
func Diff(a, b *Bag) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.Clone()
	out.Maybe = a.Maybe.Clone()
	out.Order = slices.Clone(a.Order)
	semiScan(out, a, b, false, hashKey)
	return out
}

// SemiJoin computes Ω1 ⋉ Ω2: the mappings of Ω1 compatible with at least
// one mapping of Ω2. It is the pruning primitive of LBR-style evaluation.
// Like Diff it preserves Ω1's physical order.
func SemiJoin(a, b *Bag) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.Clone()
	out.Maybe = a.Maybe.Clone()
	out.Order = slices.Clone(a.Order)
	semiScan(out, a, b, true, hashKey)
	return out
}

// semiScan appends to out the rows of a that do (keep=true: semijoin) or
// do not (keep=false: diff) have a compatible partner in b, walking a in
// physical order. With certain join keys it runs a synchronized merge
// scan when both sides are sorted by a common key sequence, and a keyed
// hash probe otherwise; without keys it degrades to the nested loop.
func semiScan(out *Bag, a, b *Bag, keep bool, hash keyHashFn) {
	if a.Len() == 0 {
		return
	}
	if b.Len() == 0 {
		if !keep {
			out.AppendAll(a)
		}
		return
	}
	keys := a.Cert.And(b.Cert).Indices(a.Width)
	verify := verifyPositions(a, b, keys)
	if len(keys) == 0 {
		for i := 0; i < a.rows; i++ {
			ra := a.Row(i)
			matched := false
			for j := 0; j < b.rows; j++ {
				if Compatible(ra, b.Row(j), verify) {
					matched = true
					break
				}
			}
			if matched == keep {
				out.Append(ra)
			}
		}
		return
	}
	if seq, ok := MergeJoinableOrders(a.Order, b.Order, keys); ok {
		j := 0
		for i := 0; i < a.rows; i++ {
			ra := a.Row(i)
			for j < b.rows && compareOn(b.Row(j), ra, seq) < 0 {
				j++
			}
			matched := false
			for y := j; y < b.rows && equalOn(b.Row(y), ra, seq); y++ {
				if Compatible(ra, b.Row(y), verify) {
					matched = true
					break
				}
			}
			if matched == keep {
				out.Append(ra)
			}
		}
		return
	}
	idx := buildHash(b, keys, hash)
	for i := 0; i < a.rows; i++ {
		ra := a.Row(i)
		matched := false
		for _, bj := range idx[hash(ra, keys)] {
			rb := b.Row(int(bj))
			if equalOn(ra, rb, keys) && Compatible(ra, rb, verify) {
				matched = true
				break
			}
		}
		if matched == keep {
			out.Append(ra)
		}
	}
}

// LeftJoin computes Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪bag (Ω1 \ Ω2): every left
// mapping joined with each compatible right mapping, or passed through
// unchanged when no right mapping is compatible.
func LeftJoin(a, b *Bag) *Bag { return LeftJoinWith(a, b, JoinOpts{Max: -1}) }

// LeftJoinWith is the fully-configurable left outer join: LeftJoin with
// the cancellation probe, output cap and pulled-rows counter of JoinOpts. Physical
// operator choice mirrors JoinWith (merge when orders allow, keyed hash
// probe, nested loop without keys), except that the left side is always
// the outer side so unmatched left rows are emitted in place — which
// keeps emission deterministic and makes the capped output an exact
// prefix here too.
func LeftJoinWith(a, b *Bag, opts JoinOpts) *Bag {
	out := NewBag(a.Width)
	out.Cert = a.Cert.Clone() // right side only certain on matched rows
	out.Maybe = a.Maybe.Or(b.Maybe)
	if opts.Max == 0 {
		return out
	}
	lim := joinLimit{max: opts.Max}
	if opts.Pulled != nil {
		defer func() { *opts.Pulled += lim.pulled }()
	}
	if b.Len() == 0 {
		out.Order = slices.Clone(a.Order)
		if lim.max >= 0 && lim.max < a.Len() {
			lim.pulled += lim.max
			out.AppendAll(a.View(0, lim.max))
			return out
		}
		lim.pulled += a.Len()
		out.AppendAll(a)
		return out
	}
	if a.Len() == 0 {
		return out
	}
	keys := a.Cert.And(b.Cert).Indices(a.Width)
	verify := verifyPositions(a, b, keys)
	stopped := batchStop(opts.Stop)
	if len(keys) == 0 {
		out.Order = orderPrefixNotIn(a.Order, b.Maybe)
		for i := 0; i < a.rows; i++ {
			ra := a.Row(i)
			matched := false
			for j := 0; j < b.rows; j++ {
				lim.pulled++
				if Compatible(ra, b.Row(j), verify) {
					matched = true
					out.AppendMerged(ra, b.Row(j))
					if lim.full(out) {
						return out
					}
				}
				if stopped() {
					return out
				}
			}
			if !matched {
				out.Append(ra)
				if lim.full(out) {
					return out
				}
			}
			if stopped() {
				return out
			}
		}
		return out
	}
	if sa, sb, seq, ok := mergePlan(a, b, keys); ok {
		out.Order = mergedOrder(sa.Order, seq, sb.Maybe)
		mergeLeftJoin(out, sa, sb, seq, verify, stopped, &lim)
		return out
	}
	hashLeftJoin(out, a, b, keys, verify, stopped, hashKey, &lim)
	return out
}

// hashLeftJoin is the keyed-probe left outer join: b is bucketed on the
// keys and every a row probes it, passing through unmatched. Like
// hashJoin, the probe verifies key equality by comparison.
func hashLeftJoin(out *Bag, a, b *Bag, keys, verify []int, stopped func() bool, hash keyHashFn, lim *joinLimit) {
	out.Order = orderPrefixNotIn(a.Order, b.Maybe)
	idx := buildHash(b, keys, hash)
	lim.pulled += b.rows // the build pass reads every build row
	for i := 0; i < a.rows; i++ {
		ra := a.Row(i)
		lim.pulled++
		matched := false
		for _, bj := range idx[hash(ra, keys)] {
			rb := b.Row(int(bj))
			if equalOn(ra, rb, keys) && Compatible(ra, rb, verify) {
				matched = true
				out.AppendMerged(ra, rb)
				if lim.full(out) {
					return
				}
			}
			if stopped() {
				return
			}
		}
		if !matched {
			out.Append(ra)
			if lim.full(out) {
				return
			}
		}
		if stopped() {
			return
		}
	}
}

// mergeLeftJoin is the sort-merge left outer join: a single synchronized
// pass over both sorted operands that emits each left row's matches (or
// the row itself when none are compatible) in left-major order.
func mergeLeftJoin(out *Bag, a, b *Bag, seq, verify []int, stopped func() bool, lim *joinLimit) {
	j := 0
	i := 0
	for i < a.rows {
		ra := a.Row(i)
		for j < b.rows && compareOn(b.Row(j), ra, seq) < 0 {
			j++
			lim.pulled++
			if stopped() {
				return
			}
		}
		if j >= b.rows || compareOn(b.Row(j), ra, seq) > 0 {
			out.Append(ra)
			i++
			lim.pulled++
			if lim.full(out) {
				return
			}
			if stopped() {
				return
			}
			continue
		}
		i2, j2 := groupEnd(a, i, seq), groupEnd(b, j, seq)
		lim.pulled += (i2 - i) + (j2 - j)
		for x := i; x < i2; x++ {
			rx := a.Row(x)
			matched := false
			for y := j; y < j2; y++ {
				if Compatible(rx, b.Row(y), verify) {
					matched = true
					out.AppendMerged(rx, b.Row(y))
					if lim.full(out) {
						return
					}
				}
				if stopped() {
					return
				}
			}
			if !matched {
				out.Append(rx)
				if lim.full(out) {
					return
				}
			}
		}
		i, j = i2, j2
	}
}

// verifyPositions returns the variable positions on which two bags may
// share bindings, excluding the already-keyed positions (key equality is
// guaranteed separately by merge comparison or hash-probe equality).
func verifyPositions(a, b *Bag, keys []int) []int {
	shared := a.Maybe.And(b.Maybe)
	for _, k := range keys {
		// Clear key positions: equality is established by the join itself.
		shared[k/64] &^= 1 << (uint(k) % 64)
	}
	return shared.Indices(a.Width)
}

// keyHashFn buckets rows by their key columns. Production call sites
// pass hashKey; the collision-handling regression tests drive the hash
// operators with a degenerate constant hash instead, proving the
// probe-side equality checks keep the results correct regardless.
type keyHashFn = func(Row, []int) uint64

// buildHash buckets the bag's row indices by key hash.
func buildHash(b *Bag, keys []int, hash keyHashFn) map[uint64][]int32 {
	idx := make(map[uint64][]int32, b.rows)
	for i := 0; i < b.rows; i++ {
		h := hash(b.Row(i), keys)
		idx[h] = append(idx[h], int32(i))
	}
	return idx
}

// hashKey computes an FNV-1a hash of the key positions of a row.
func hashKey(r Row, keys []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, k := range keys {
		v := uint64(r[k])
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// Project returns a bag keeping only the given variable positions bound;
// all other positions are cleared. Used by SELECT projection. The output
// arena is one allocation; the physical order survives up to the first
// dropped sort column.
func Project(b *Bag, keep []int) *Bag {
	keepBits := NewBits(b.Width)
	for _, k := range keep {
		keepBits.Set(k)
	}
	out := NewBag(b.Width)
	out.Cert = b.Cert.And(keepBits)
	out.Maybe = b.Maybe.And(keepBits)
	for _, p := range b.Order {
		if !keepBits.Has(p) {
			break
		}
		out.Order = append(out.Order, p)
	}
	out.data = make([]store.ID, b.rows*b.Width)
	out.rows = b.rows
	for i := 0; i < b.rows; i++ {
		base := i * b.Width
		for _, k := range keep {
			out.data[base+k] = b.data[base+k]
		}
	}
	return out
}

// Distinct removes duplicate mappings, keeping first occurrences. Rows
// are deduplicated by full-row hash with arena-comparison verification —
// no per-row key strings are materialized.
func Distinct(b *Bag) *Bag { return distinctWith(b, hashKey) }

func distinctWith(b *Bag, hash keyHashFn) *Bag {
	out := NewBag(b.Width)
	out.Cert = b.Cert.Clone()
	out.Maybe = b.Maybe.Clone()
	out.Order = slices.Clone(b.Order)
	all := allPositions(b.Width)
	seen := make(map[uint64][]int32, b.rows)
	for i := 0; i < b.rows; i++ {
		r := b.Row(i)
		h := hash(r, all)
		dup := false
		for _, j := range seen[h] {
			if compareRows(r, b.Row(int(j))) == 0 {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], int32(i))
		out.Append(r)
	}
	return out
}

// allPositions returns [0, width).
func allPositions(width int) []int {
	out := make([]int, width)
	for i := range out {
		out[i] = i
	}
	return out
}

// BindingsOf returns the distinct non-None values of variable v across the
// bag, as a set. Used by candidate pruning (§6).
func BindingsOf(b *Bag, v int) map[store.ID]struct{} {
	return BindingsOfCapped(b, v, -1)
}

// BindingsOfCapped is BindingsOf with an early exit: once the set exceeds
// cap distinct values it returns nil, bounding the cost of probing large
// intermediate results for candidate sets that would be discarded anyway.
// cap < 0 means unlimited.
func BindingsOfCapped(b *Bag, v int, cap int) map[store.ID]struct{} {
	set := make(map[store.ID]struct{})
	for i := 0; i < b.rows; i++ {
		if id := b.data[i*b.Width+v]; id != store.None {
			set[id] = struct{}{}
			if cap >= 0 && len(set) > cap {
				return nil
			}
		}
	}
	return set
}
