package algebra

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"sparqluo/internal/store"
)

// Bag is a multiset of mappings over a fixed variable width, stored as a
// flat columnar arena: one []store.ID holding the rows back to back with
// a stride of Width. A bag is a single allocation however many rows it
// holds, appends are contiguous copies, and row access is an index
// computation — no per-row slice headers.
//
// Order is the bag's physical-order property: the sequence of variable
// positions by which the rows are sorted lexicographically (store.None
// sorts first, as ID 0). A nil/empty Order promises nothing. Operators
// maintain Order where it is free to do so — pattern scans inherit the
// order of the permutation they read, merge joins emit key-grouped
// output — and the join operators dispatch to streaming sort-merge
// joins when both operands share a sorted prefix covering the certain
// join keys.
type Bag struct {
	Width int
	Cert  Bits  // variables bound in every row
	Maybe Bits  // variables bound in some row
	Order []int // physical sort sequence; rows ascend lexicographically by it

	data []store.ID // flat arena, len = rows*Width
	rows int
}

// NewBag returns an empty bag of the given width with no known bindings.
func NewBag(width int) *Bag {
	return &Bag{Width: width, Cert: NewBits(width), Maybe: NewBits(width)}
}

// Unit returns the bag containing the single empty mapping µ0, the
// identity of join.
func Unit(width int) *Bag {
	b := NewBag(width)
	b.data = make([]store.ID, width)
	b.rows = 1
	return b
}

// Len returns the number of mappings in the bag.
func (b *Bag) Len() int { return b.rows }

// Row returns row i as a view into the arena. The view stays valid
// across later appends only by accident of capacity; callers that
// append to b must not hold earlier views.
func (b *Bag) Row(i int) Row {
	lo := i * b.Width
	return Row(b.data[lo : lo+b.Width : lo+b.Width])
}

// All iterates the rows in physical order, yielding (index, row view).
func (b *Bag) All() iter.Seq2[int, Row] {
	return func(yield func(int, Row) bool) {
		for i := 0; i < b.rows; i++ {
			if !yield(i, b.Row(i)) {
				return
			}
		}
	}
}

// Grow reserves arena capacity for n additional rows.
func (b *Bag) Grow(n int) {
	b.data = slices.Grow(b.data, n*b.Width)
}

// Append copies one row into the arena. The caller is responsible for
// keeping Cert/Maybe/Order consistent; prefer the operator functions.
func (b *Bag) Append(r Row) {
	b.data = append(b.data, r...)
	b.rows++
}

// AppendMerged appends µ1 ∪ µ2 (assuming compatibility) directly into
// the arena: a contiguous copy of x overlaid with the bound slots of y,
// with no intermediate row allocation.
func (b *Bag) AppendMerged(x, y Row) {
	n := len(b.data)
	b.data = append(b.data, x...)
	m := b.data[n:]
	for i, v := range y {
		if v != store.None {
			m[i] = v
		}
	}
	b.rows++
}

// AppendAll bulk-copies every row of o into b's arena.
func (b *Bag) AppendAll(o *Bag) {
	b.data = append(b.data, o.data...)
	b.rows += o.rows
}

// View returns a zero-copy sub-bag of rows [lo, hi), sharing the arena.
// Metadata (Cert/Maybe/Order) is cloned; a contiguous slice of sorted
// rows keeps the sort. The view's capacity is clamped so appending to
// it reallocates instead of overwriting the parent's rows past hi.
func (b *Bag) View(lo, hi int) *Bag {
	return &Bag{
		Width: b.Width,
		Cert:  b.Cert.Clone(),
		Maybe: b.Maybe.Clone(),
		Order: slices.Clone(b.Order),
		data:  b.data[lo*b.Width : hi*b.Width : hi*b.Width],
		rows:  hi - lo,
	}
}

// SetColumn sets variable position col to id in every row — used to
// report a bound template parameter as a constant binding. If col is a
// sort column, the order claim survives through col itself (a constant
// ties everywhere) but later columns were only sorted within the old
// values of col, so the suffix is dropped.
func (b *Bag) SetColumn(col int, id store.ID) {
	for i := 0; i < b.rows; i++ {
		b.data[i*b.Width+col] = id
	}
	for i, p := range b.Order {
		if p == col {
			b.Order = b.Order[:i+1]
			break
		}
	}
}

// String renders the bag for debugging.
func (b *Bag) String() string {
	return fmt.Sprintf("Bag(width=%d, rows=%d)", b.Width, b.rows)
}

// compareOn lexicographically compares two rows on the given positions.
func compareOn(a, b Row, seq []int) int {
	for _, k := range seq {
		x, y := a[k], b[k]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	}
	return 0
}

// equalOn reports whether two rows agree on every given position.
func equalOn(a, b Row, seq []int) bool {
	for _, k := range seq {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// compareRows compares two full rows lexicographically over all slots.
func compareRows(a, b Row) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// SortedBy reports whether the bag's rows actually ascend
// lexicographically by seq — the invariant Order claims. Test helper.
func (b *Bag) SortedBy(seq []int) bool {
	for i := 1; i < b.rows; i++ {
		if compareOn(b.Row(i-1), b.Row(i), seq) > 0 {
			return false
		}
	}
	return true
}

// keyPrefixCovers returns the longest prefix of ord consisting of
// distinct members of keys, and whether that prefix covers every key —
// the condition under which a bag sorted by ord can drive a merge join
// on keys. The prefix stops at the first position outside keys (or a
// repeat), since later sort columns are only meaningful within ties of
// the earlier ones.
func keyPrefixCovers(ord, keys []int) ([]int, bool) {
	var prefix []int
	for _, p := range ord {
		if !slices.Contains(keys, p) || slices.Contains(prefix, p) {
			break
		}
		prefix = append(prefix, p)
		if len(prefix) == len(keys) {
			break
		}
	}
	return prefix, len(prefix) == len(keys)
}

// orderPrefixNotIn returns the longest prefix of ord whose positions are
// all outside mask — the part of one operand's physical order that a
// join provably carries into its output when the other operand (whose
// Maybe is mask) cannot overwrite those slots.
func orderPrefixNotIn(ord []int, mask Bits) []int {
	var out []int
	for _, p := range ord {
		if mask.Has(p) {
			break
		}
		out = append(out, p)
	}
	return out
}

// mergedOrder is the output order of a merge join: the merge sequence
// itself, extended — when the a-side order actually starts with seq —
// by a-side sort columns the b side cannot perturb. Within one key
// group the join emits a-major, and rows sharing an a-row agree on
// every position outside b's Maybe, so the suffix claim holds.
func mergedOrder(aOrd, seq []int, bMaybe Bits) []int {
	out := slices.Clone(seq)
	if len(aOrd) < len(seq) || !slices.Equal(aOrd[:len(seq)], seq) {
		return out
	}
	return append(out, orderPrefixNotIn(aOrd[len(seq):], bMaybe)...)
}

// MergeJoinableOrders reports whether two physical orders allow a
// direct (no re-sort) merge join on the given certain key positions,
// and returns the shared merge sequence. Exported for the cost model,
// which prices merge-joinable steps below hash-join steps.
func MergeJoinableOrders(aOrd, bOrd, keys []int) ([]int, bool) {
	seqA, okA := keyPrefixCovers(aOrd, keys)
	seqB, okB := keyPrefixCovers(bOrd, keys)
	if okA && okB && slices.Equal(seqA, seqB) {
		return seqA, true
	}
	return nil, false
}

// sortedIndex returns the bag's row indices sorted by full-row compare.
func sortedIndex(b *Bag) []int {
	idx := make([]int, b.rows)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		return compareRows(b.Row(idx[x]), b.Row(idx[y])) < 0
	})
	return idx
}

// MultisetEqual reports whether two bags are equal as multisets of
// mappings (row order irrelevant, duplicates significant). Rows are
// compared directly on the arenas — no per-row key materialization.
func MultisetEqual(a, b *Bag) bool {
	if a.Width != b.Width || a.rows != b.rows {
		return false
	}
	ia, ib := sortedIndex(a), sortedIndex(b)
	for k := range ia {
		if compareRows(a.Row(ia[k]), b.Row(ib[k])) != 0 {
			return false
		}
	}
	return true
}
