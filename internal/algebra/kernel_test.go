package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sparqluo/internal/store"
)

// The kernel's twelve cells: every emission mode on every physical
// matcher. Nested and hash are forced through joinKernel's path
// argument; merge is forced the only way that is legal in all four
// modes — by handing over operands already sorted on the certain keys.
var (
	kernelModes = []struct {
		name string
		mode joinMode
	}{{"inner", modeInner}, {"left", modeLeft}, {"semi", modeSemi}, {"anti", modeAnti}}
	kernelPaths = []struct {
		name    string
		path    joinPath
		presort bool // sort both operands on the certain keys first
	}{{"nested", pathNested, false}, {"merge", pathAuto, true}, {"hash", pathHash, false}}
)

// naiveMatch is the reference for every cell: the documented emission
// order — outer-major, partners in inner operand order, pairs merged
// a-side first — spelled out as the naive nested loop. swapped says the
// outer operand is b (the inner-mode hash join probing with the larger
// side).
func naiveMatch(outer, inner *Bag, mode joinMode, swapped bool) *Bag {
	out := NewBag(outer.Width)
	for _, ro := range outer.All() {
		matched := false
		for _, ri := range inner.All() {
			if !naiveCompatible(ro, ri) {
				continue
			}
			matched = true
			switch {
			case mode > modeLeft:
			case swapped:
				out.Append(MergeRows(ri, ro))
			default:
				out.Append(MergeRows(ro, ri))
			}
		}
		switch mode {
		case modeLeft, modeAnti:
			if !matched {
				out.Append(ro)
			}
		case modeSemi:
			if matched {
				out.Append(ro)
			}
		}
	}
	return out
}

// isRowPrefix reports whether p's rows are exactly the first p.Len()
// rows of full.
func isRowPrefix(p, full *Bag) bool {
	return p.Len() <= full.Len() && slices.Equal(p.data, full.data[:p.Len()*full.Width])
}

// claimsSound checks a result's Cert/Maybe/Order against its rows.
func claimsSound(b *Bag) error {
	for i, r := range b.All() {
		for v, id := range r {
			if id == store.None && b.Cert.Has(v) {
				return fmt.Errorf("row %d: certain variable %d unbound", i, v)
			}
			if id != store.None && !b.Maybe.Has(v) {
				return fmt.Errorf("row %d: variable %d bound outside Maybe", i, v)
			}
		}
	}
	if !b.SortedBy(b.Order) {
		return fmt.Errorf("claimed order %v not sorted", b.Order)
	}
	return nil
}

// TestQuickKernelModesTimesPaths runs every mode on every forced
// physical path against naiveMatch on randomized skewed bags with
// possibly-unbound shared columns: identical rows in identical order
// (hence multiset equality), sound Cert/Maybe/Order claims, Max = k
// yielding the exact k-prefix, and Pulled non-decreasing in Max and
// bounded by the uncapped count. A spy key hash proves the path was
// really forced: the hash matcher must call it, the others must not.
func TestQuickKernelModesTimesPaths(t *testing.T) {
	for _, mc := range kernelModes {
		for _, pc := range kernelPaths {
			t.Run(mc.name+"/"+pc.name, func(t *testing.T) {
				f := func(seed int64) bool {
					rng := rand.New(rand.NewSource(seed))
					a, b := randSkewBag(rng, 4), randSkewBag(rng, 4)
					keys := a.Cert.And(b.Cert).Indices(4)
					if pc.path != pathNested && len(keys) == 0 {
						return true // merge and hash need a certain key
					}
					if pc.presort {
						a, b = SortByKeys(a, ascending(keys)), SortByKeys(b, ascending(keys))
					}
					hashed := 0
					spy := func(r Row, k []int) uint64 { hashed++; return hashKey(r, k) }
					run := func(max int, pulled *int) *Bag {
						return joinKernel(a, b, mc.mode, JoinOpts{Max: max, Pulled: pulled}, pc.path, spy)
					}

					var fullPulled int
					full := run(-1, &fullPulled)
					if dispatched := a.Len() > 0 && b.Len() > 0; dispatched && (hashed > 0) != (pc.path == pathHash) {
						t.Logf("seed %d: %d key-hash calls on the %s path", seed, hashed, pc.name)
						return false
					}
					swapped := mc.mode == modeInner && pc.path == pathHash && a.Len() < b.Len()
					want := naiveMatch(a, b, mc.mode, false)
					if swapped {
						want = naiveMatch(b, a, mc.mode, true)
					}
					if full.Len() != want.Len() || !isRowPrefix(full, want) {
						t.Logf("seed %d: got %v, want %v", seed, rowsOf(full), rowsOf(want))
						return false
					}
					if err := claimsSound(full); err != nil {
						t.Logf("seed %d: %v", seed, err)
						return false
					}
					prevPulled := 0
					for k := 0; k <= full.Len()+1; k++ {
						var pulled int
						capped := run(k, &pulled)
						if capped.Len() != min(k, full.Len()) || !isRowPrefix(capped, full) {
							t.Logf("seed %d: Max=%d is not the %d-prefix", seed, k, k)
							return false
						}
						if pulled < prevPulled || pulled > fullPulled {
							t.Logf("seed %d: Max=%d pulled %d (Max=%d pulled %d, uncapped %d)",
								seed, k, pulled, k-1, prevPulled, fullPulled)
							return false
						}
						if err := claimsSound(capped); err != nil {
							t.Logf("seed %d: Max=%d: %v", seed, k, err)
							return false
						}
						prevPulled = pulled
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestKernelStopReturnsWithinOnePollBatch cancels every cell at the
// first poll. Both operands are 300 rows in three key runs of 100, so
// every matcher has tens of thousands of steps ahead of it; the join
// must return after exactly one poll — (joinStopMask+1) steps — with a
// prefix of the real output. With compatible=false the shared non-key
// column conflicts on every pair, so semi and anti mode cannot leave a
// run at its first candidate and walk as far as inner and left do.
func TestKernelStopReturnsWithinOnePollBatch(t *testing.T) {
	const n = 300
	mk := func(col1 store.ID, payload int) *Bag {
		b := NewBag(4)
		b.Cert.Set(0) // column 1 is shared too, but only claimed as Maybe
		for _, v := range []int{0, 1, payload} {
			b.Maybe.Set(v)
		}
		for i := 0; i < n; i++ {
			row := Row{store.ID(1 + i/100), col1, store.None, store.None}
			row[payload] = store.ID(1 + i)
			b.Append(row)
		}
		b.Order = []int{0}
		return b
	}
	for _, compatible := range []bool{true, false} {
		a, b := mk(1, 2), mk(1, 3)
		if !compatible {
			b = mk(2, 3)
		}
		for _, mc := range kernelModes {
			for _, pc := range kernelPaths {
				full := joinKernel(a, b, mc.mode, unlimited, pc.path, hashKey)
				polls, pulled := 0, 0
				stop := func() bool { polls++; return true }
				got := joinKernel(a, b, mc.mode, JoinOpts{Stop: stop, Max: -1, Pulled: &pulled}, pc.path, hashKey)
				tag := fmt.Sprintf("%s/%s compatible=%v", mc.name, pc.name, compatible)
				// A keyed semi or anti join of compatible operands is done
				// in two steps per outer row — too few to reach a poll.
				wantPolls := 1
				if compatible && mc.mode >= modeSemi && pc.path != pathNested {
					wantPolls = 0
				}
				if polls != wantPolls {
					t.Errorf("%s: stop polled %d times, want %d", tag, polls, wantPolls)
				}
				if !isRowPrefix(got, full) {
					t.Errorf("%s: cancelled output is not a prefix of the full output", tag)
				}
				if wantPolls == 0 {
					continue
				}
				// Every emitted row and every pulled row costs a step,
				// bar the hash build pass and the merge runs, which pull
				// at most the whole inner side in bulk.
				if got.Len() > joinStopMask+1 || got.Len() == full.Len() && full.Len() > 0 {
					t.Errorf("%s: %d of %d rows emitted after the stop fired", tag, got.Len(), full.Len())
				}
				if pulled > joinStopMask+1+n {
					t.Errorf("%s: pulled %d rows, want at most one poll batch + the inner side", tag, pulled)
				}
			}
		}
	}
}
