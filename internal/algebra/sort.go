package algebra

import (
	"slices"
	"sort"

	"sparqluo/internal/store"
)

// SortKey is one ORDER BY sort key: a variable position plus direction.
// Rows compare by dictionary ID (store.None first, as ID 0) — the same
// total order the physical Order property describes, so a bag whose
// carried Order covers an all-ascending key sequence already answers it.
type SortKey struct {
	Col  int
	Desc bool
}

// compareKeys compares two rows on the key sequence, honoring per-key
// direction.
func compareKeys(a, b Row, keys []SortKey) int {
	for _, k := range keys {
		x, y := a[k.Col], b[k.Col]
		if x == y {
			continue
		}
		if (x < y) != k.Desc {
			return -1
		}
		return 1
	}
	return 0
}

// OrderCoversKeys reports whether a bag physically sorted by ord is
// already sorted by the requested keys, making the sort free: every key
// ascends and the order sequence leads with exactly the key columns.
func OrderCoversKeys(ord []int, keys []SortKey) bool {
	if len(keys) > len(ord) {
		return false
	}
	for i, k := range keys {
		if k.Desc || ord[i] != k.Col {
			return false
		}
	}
	return true
}

// sortedKeyOrder is the Order claim of a bag sorted (stably) by keys:
// the ascending key columns up to the first descending one — Order only
// speaks ascending — extended, when every key ascends, with the
// surviving tail of the input's own order (the stable sort preserves it
// within key ties). The claim is equally valid for any contiguous prefix
// of the sorted rows, so TopK shares it.
func sortedKeyOrder(keys []SortKey, prevOrder []int) []int {
	var out []int
	for _, k := range keys {
		if k.Desc {
			return out
		}
		if !slices.Contains(out, k.Col) {
			out = append(out, k.Col)
		}
	}
	for _, p := range prevOrder {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// ascending returns the all-ascending sort keys on the column sequence
// seq. A bag sorted by them has Order seq followed by the surviving tail
// of its own order.
func ascending(seq []int) []SortKey {
	keys := make([]SortKey, len(seq))
	for i, c := range seq {
		keys[i] = SortKey{Col: c}
	}
	return keys
}

// SortByKeys returns a copy of b stably sorted by the given keys — the
// ORDER BY operator, and the merge join's re-sort of an operand (keys
// from ascending). Ties keep b's row order, so the result is a
// deterministic function of the input.
func SortByKeys(b *Bag, keys []SortKey) *Bag {
	idx := make([]int, b.rows)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return compareKeys(b.Row(idx[x]), b.Row(idx[y]), keys) < 0
	})
	out := &Bag{
		Width: b.Width,
		Cert:  b.Cert.Clone(),
		Maybe: b.Maybe.Clone(),
		Order: sortedKeyOrder(keys, b.Order),
		rows:  b.rows,
		data:  make([]store.ID, 0, b.rows*b.Width),
	}
	for _, i := range idx {
		out.data = append(out.data, b.Row(i)...)
	}
	return out
}

// TopK returns the first k rows of SortByKeys(b, keys) — byte-identical
// to sorting and slicing — without sorting the whole bag: a bounded
// max-heap of row indices keeps the k smallest rows under the
// (keys, original index) order, so ties resolve exactly as the stable
// sort would. O(n log k) instead of O(n log n), and the arena copy is k
// rows, not n.
func TopK(b *Bag, keys []SortKey, k int) *Bag {
	if k < 0 {
		k = 0
	}
	if k >= b.rows {
		return SortByKeys(b, keys)
	}
	// precedes is the total output order: key comparison, then original
	// row index (the stable tiebreak).
	precedes := func(x, y int) bool {
		if c := compareKeys(b.Row(x), b.Row(y), keys); c != 0 {
			return c < 0
		}
		return x < y
	}
	// heap holds the k smallest indices seen so far with the LARGEST at
	// the root, so a new row only displaces the current worst.
	heap := make([]int, 0, k)
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if precedes(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && precedes(heap[big], heap[l]) {
				big = l
			}
			if r < len(heap) && precedes(heap[big], heap[r]) {
				big = r
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	for i := 0; i < b.rows; i++ {
		if len(heap) < k {
			heap = append(heap, i)
			siftUp(len(heap) - 1)
			continue
		}
		if k > 0 && precedes(i, heap[0]) {
			heap[0] = i
			siftDown()
		}
	}
	sort.Slice(heap, func(x, y int) bool { return precedes(heap[x], heap[y]) })
	out := &Bag{
		Width: b.Width,
		Cert:  b.Cert.Clone(),
		Maybe: b.Maybe.Clone(),
		Order: sortedKeyOrder(keys, b.Order),
		rows:  len(heap),
		data:  make([]store.ID, 0, len(heap)*b.Width),
	}
	for _, i := range heap {
		out.data = append(out.data, b.Row(i)...)
	}
	return out
}
