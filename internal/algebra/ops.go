package algebra

import (
	"maps"
	"slices"

	"sparqluo/internal/store"
)

// Join computes Ω1 ⋈ Ω2 = {µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ∼ µ2} under bag
// semantics. The join keys are the variables certainly bound on both
// sides; full compatibility is verified on the remaining possibly-shared
// positions. Physical operator choice is order-aware (see joinKernel):
//
//   - when both operands are sorted by a shared prefix covering the keys
//     (or can be, by sorting the smaller side), a streaming sort-merge
//     join runs over the arenas;
//   - otherwise the smaller side is hash-partitioned on the keys and the
//     larger side probes it;
//   - with no certain key, a nested loop verifies compatibility.
func Join(a, b *Bag) *Bag { return JoinWith(a, b, unlimited) }

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

// unlimited is the JoinOpts of the plain Join/LeftJoin/SemiJoin/Diff:
// no cancellation, no cap, no counter.
var unlimited = JoinOpts{Max: -1}

// JoinWith is the fully-configurable join: Join with a cancellation
// probe, an output cap and a pulled-rows counter (see JoinOpts). When
// the probe aborts the join the bag built so far is returned; callers
// own the decision to discard the truncated result.
func JoinWith(a, b *Bag, opts JoinOpts) *Bag {
	return joinKernel(a, b, modeInner, opts, pathAuto, hashKey)
}

// LeftJoin computes Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪bag (Ω1 \ Ω2): every left
// mapping joined with each compatible right mapping, or passed through
// unchanged when no right mapping is compatible.
func LeftJoin(a, b *Bag) *Bag { return LeftJoinWith(a, b, unlimited) }

// LeftJoinWith is the fully-configurable left outer join: LeftJoin with
// the cancellation probe, output cap and pulled-rows counter of JoinOpts.
// Physical operator choice mirrors JoinWith, except that the left side
// is always the outer side so unmatched left rows are emitted in place —
// which keeps emission deterministic and makes the capped output an
// exact prefix here too.
func LeftJoinWith(a, b *Bag, opts JoinOpts) *Bag {
	return joinKernel(a, b, modeLeft, opts, pathAuto, hashKey)
}

// SemiJoin computes Ω1 ⋉ Ω2: the mappings of Ω1 compatible with at least
// one mapping of Ω2. It is the pruning primitive of LBR-style evaluation.
// The output is a subsequence of Ω1 and keeps its physical order, so no
// operand is ever re-sorted: the merge scan runs only when both sides
// already share a key-covering order, the keyed hash probe otherwise.
func SemiJoin(a, b *Bag) *Bag {
	return joinKernel(a, b, modeSemi, unlimited, pathAuto, hashKey)
}

// Diff computes Ω1 \ Ω2 = {µ1 ∈ Ω1 | ∀µ2 ∈ Ω2 : µ1 ≁ µ2}, the anti-join
// twin of SemiJoin: same physical paths, same order preservation.
func Diff(a, b *Bag) *Bag {
	return joinKernel(a, b, modeAnti, unlimited, pathAuto, hashKey)
}

// joinMode is what the kernel emits for an outer row once its compatible
// inner rows are known.
type joinMode uint8

const (
	modeInner joinMode = iota // every compatible pair
	modeLeft                  // ... and the bare outer row when there is none
	modeSemi                  // the bare outer row iff a partner exists
	modeAnti                  // the bare outer row iff none exists
)

// joinPath restricts the physical matcher; everything but the tests
// passes pathAuto.
type joinPath uint8

const (
	pathAuto   joinPath = iota // the dispatch rule of joinKernel
	pathNested                 // ignore the certain keys
	pathHash                   // never merge
)

// joinKernel is the one implementation behind Join, LeftJoin, SemiJoin
// and Diff: a shared pre-dispatch picks one of three physical matchers —
// nested loop (no certain key), merge over a key-sorted inner, hash
// probe — and each matcher walks the outer operand once, in order,
// handing every outer row's compatible inner rows to the emission mode.
// a is the outer side, except that the inner-mode hash join probes with
// the larger operand; pairs are always merged a-side first. Since every
// path emits outer-major in operand order, the output capped at opts.Max
// is the exact prefix of the uncapped output in every mode.
func joinKernel(a, b *Bag, mode joinMode, opts JoinOpts, path joinPath, hash keyHashFn) *Bag {
	out := NewBag(a.Width)
	pairs := mode <= modeLeft // the output holds merged rows, not a subsequence of a
	switch mode {
	case modeInner:
		out.Cert, out.Maybe = a.Cert.Or(b.Cert), a.Maybe.Or(b.Maybe)
	case modeLeft: // right side only certain on matched rows
		out.Cert, out.Maybe = a.Cert.Clone(), a.Maybe.Or(b.Maybe)
	default:
		out.Cert, out.Maybe, out.Order = a.Cert.Clone(), a.Maybe.Clone(), slices.Clone(a.Order)
	}
	m := matcher{out: out, mode: mode, stop: opts.Stop, max: opts.Max}
	switch {
	case opts.Max == 0:
	case b.Len() == 0:
		// No partner anywhere: left and anti mode pass a through in place.
		if mode == modeLeft || mode == modeAnti {
			n := a.Len()
			if m.max >= 0 && m.max < n {
				n = m.max
			}
			out.Order = slices.Clone(a.Order)
			out.data, out.rows = slices.Clone(a.data[:n*a.Width]), n
			m.pulled = n
		}
	case a.Len() == 0:
	default:
		keys := a.Cert.And(b.Cert).Indices(a.Width)
		if path == pathNested {
			keys = nil
		}
		m.verify = verifyPositions(a, b, keys)
		var sa, sb *Bag
		var seq []int
		merge := false
		if len(keys) > 0 && path != pathHash {
			sa, sb, seq, merge = mergePlan(a, b, keys, pairs)
		}
		switch {
		case len(keys) == 0:
			if pairs {
				out.Order = orderPrefixNotIn(a.Order, b.Maybe)
			}
			m.nested(a, b)
		case merge:
			if pairs {
				out.Order = mergedOrder(sa.Order, seq, sb.Maybe)
			}
			m.merge(sa, sb, seq)
		default:
			outer, inner := a, b
			if mode == modeInner && a.rows < b.rows {
				// Build on the smaller side, probe with the larger.
				outer, inner, m.swapped = b, a, true
			}
			if pairs {
				// Outer-major emission carries the outer side's order on
				// the slots the inner side cannot overwrite.
				out.Order = orderPrefixNotIn(outer.Order, inner.Maybe)
			}
			m.hash(outer, inner, keys, hash)
		}
	}
	if opts.Pulled != nil {
		*opts.Pulled += m.pulled
	}
	return out
}

// mergePlan decides whether an order-aware merge join applies. Both
// operands sorted by the same key-covering prefix merge directly; when
// only one side is sorted (or they are sorted by different key
// sequences), the smaller side is re-sorted to match; a bag of at most
// one row is trivially sorted by any sequence. Operands are never
// mutated — re-sorting copies. The returned operands keep the (a, b)
// orientation of the caller. With resort false (semi and anti mode,
// whose output must keep a's physical order) only the direct case
// applies.
func mergePlan(a, b *Bag, keys []int, resort bool) (sa, sb *Bag, seq []int, ok bool) {
	if !resort {
		seq, ok = MergeJoinableOrders(a.Order, b.Order, keys)
		return a, b, seq, ok
	}
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
			return a, SortByKeys(b, ascending(seqA)), seqA, true
		}
		return SortByKeys(a, ascending(seqB)), b, seqB, true
	case okA:
		if b.rows <= a.rows {
			return a, SortByKeys(b, ascending(seqA)), seqA, true
		}
	case okB:
		if a.rows <= b.rows {
			return SortByKeys(a, ascending(seqB)), b, seqB, true
		}
	}
	return nil, nil, nil, false
}

// joinStopMask batches cancellation probes: stop is polled once per
// (joinStopMask+1) matcher steps, keeping the hot path to a counter AND.
const joinStopMask = 2047

// matcher is the state of one joinKernel execution: the emission mode,
// the JoinOpts budget, and the positions left to verify on a candidate
// pair. Its three walks — nested, merge, hash — differ only in how they
// find an outer row's candidates.
type matcher struct {
	out     *Bag
	mode    joinMode
	swapped bool  // the outer operand is b: merge pairs inner-first
	verify  []int // possibly-shared non-key positions
	stop    func() bool
	steps   int // stopped() calls so far
	max     int // output rows allowed; -1 unlimited
	pulled  int // operand rows drawn, flushed to JoinOpts.Pulled once
}

// stopped counts one matcher step and polls the cancellation probe on
// every (joinStopMask+1)-th.
func (m *matcher) stopped() bool {
	m.steps++
	return m.steps&joinStopMask == 0 && m.stop != nil && m.stop()
}

// finish closes one outer row — left and anti mode emit it bare when it
// found no partner, semi mode when it found one — and reports whether
// the join is over: output full, or cancelled.
func (m *matcher) finish(ro Row, matched bool) bool {
	if m.mode != modeInner && matched == (m.mode == modeSemi) {
		m.out.Append(ro)
	}
	return m.out.rows == m.max || m.stopped()
}

// nested is the keyless matcher: every inner row is a candidate.
func (m *matcher) nested(outer, inner *Bag) {
	first := m.mode >= modeSemi
	for i := 0; i < outer.rows; i++ {
		ro := outer.Row(i)
		matched := false
		for j := 0; j < inner.rows; j++ {
			m.pulled++
			if ri := inner.Row(j); Compatible(ro, ri, m.verify) {
				matched = true
				if first {
					break
				}
				m.out.AppendMerged(ro, ri)
				if m.out.rows == m.max {
					return
				}
			}
			if m.stopped() {
				return
			}
		}
		if m.finish(ro, matched) {
			return
		}
	}
}

// merge streams two bags sorted by seq with one synchronized pass: the
// inner cursor j trails the outer row's key, and [j, j2) is the inner
// run equal to it — found once, then reused by every outer row of the
// same key, so an equal-key group emits its cross product outer-major.
// Key equality is established by comparison — no hash, no collisions.
// Each outer row is pulled when it is walked, each inner row once: on
// being skipped, or with its run.
func (m *matcher) merge(outer, inner *Bag, seq []int) {
	first := m.mode >= modeSemi
	j, j2 := 0, 0
	for i := 0; i < outer.rows; i++ {
		ro := outer.Row(i)
		c := 1 // inner cursor row vs ro; an exhausted inner compares greater
		for ; j < inner.rows; c = 1 {
			if c = compareOn(inner.Row(j), ro, seq); c >= 0 {
				break
			}
			if j < j2 {
				j = j2 // past the previous run, pulled when it was found
			} else {
				j++
				m.pulled++
			}
			if m.stopped() {
				return
			}
		}
		if j == inner.rows && (m.mode == modeInner || m.mode == modeSemi) {
			return // no later outer row can find a partner
		}
		m.pulled++
		matched := false
		if c == 0 {
			if j2 <= j {
				j2 = groupEnd(inner, j, seq)
				m.pulled += j2 - j
			}
			for y := j; y < j2; y++ {
				if ri := inner.Row(y); Compatible(ro, ri, m.verify) {
					matched = true
					if first {
						break
					}
					m.out.AppendMerged(ro, ri)
					if m.out.rows == m.max {
						return
					}
				}
				if m.stopped() {
					return
				}
			}
		}
		if m.finish(ro, matched) {
			return
		}
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

// hash is the fallback matcher: the inner side is bucketed by key hash
// and every outer row probes it. Probes verify key equality by
// comparison — a hash collision on the key columns must not pair rows
// with different keys — before checking the non-key shared positions.
func (m *matcher) hash(outer, inner *Bag, keys []int, hash keyHashFn) {
	first := m.mode >= modeSemi
	idx := buildHash(inner, keys, hash)
	m.pulled += inner.rows // the build pass reads every build row
	for i := 0; i < outer.rows; i++ {
		ro := outer.Row(i)
		m.pulled++
		matched := false
		for _, bi := range idx[hash(ro, keys)] {
			if ri := inner.Row(int(bi)); equalOn(ro, ri, keys) && Compatible(ro, ri, m.verify) {
				matched = true
				if first {
					break
				}
				if m.swapped {
					m.out.AppendMerged(ri, ro)
				} else {
					m.out.AppendMerged(ro, ri)
				}
				if m.out.rows == m.max {
					return
				}
			}
			// Poll per build-row visit: one skewed hash bucket can hold
			// most of the build side, so per-probe-row polling would let
			// a cancelled join run a bucket to completion.
			if m.stopped() {
				return
			}
		}
		if m.finish(ro, matched) {
			return
		}
	}
}

// UnionAll computes Ω1 ∪bag … ∪bag Ωk, concatenating the bags in one
// pass. Empty operands contribute only their Maybe; Cert is the
// intersection over the non-empty ones, and a sole non-empty operand
// keeps its Order.
func UnionAll(width int, bags ...*Bag) *Bag {
	out := NewBag(width)
	total, live := 0, 0
	for _, b := range bags {
		out.Maybe = out.Maybe.Or(b.Maybe)
		if b.Len() == 0 {
			continue
		}
		if live++; live == 1 {
			out.Cert, out.Order = b.Cert.Clone(), slices.Clone(b.Order)
		} else {
			out.Cert, out.Order = out.Cert.And(b.Cert), nil
		}
		total += b.Len()
	}
	out.Grow(total)
	for _, b := range bags {
		out.AppendAll(b)
	}
	return out
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

// BindingsOfCapped returns the distinct non-None values of variable v
// across the bag as an ascending list, the form exec.Candidates reads,
// for candidate pruning (§6) — or nil once there are more than cap
// distinct values, bounding the cost of probing large intermediate
// results for candidate sets that would be discarded anyway. A map
// collects the distinct values so that the scan can stop at the cap;
// the survivors are sorted once, at the end. cap < 0 means unlimited.
func BindingsOfCapped(b *Bag, v int, cap int) []store.ID {
	set := make(map[store.ID]struct{})
	for i := 0; i < b.rows; i++ {
		if id := b.data[i*b.Width+v]; id != store.None {
			set[id] = struct{}{}
			if cap >= 0 && len(set) > cap {
				return nil
			}
		}
	}
	out := slices.AppendSeq(make([]store.ID, 0, len(set)), maps.Keys(set))
	slices.Sort(out)
	return out
}
