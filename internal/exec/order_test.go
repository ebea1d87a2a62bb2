package exec

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// randomCandidates builds a candidate list for up to two variables of
// the BGP, mirroring the pruning layer's shape.
func randomCandidates(rng *rand.Rand, st *store.Store, bgp BGP) Candidates {
	vars := bgp.Vars()
	if len(vars) == 0 || rng.Intn(2) == 0 {
		return nil
	}
	cand := Candidates{}
	for k := 0; k < 1+rng.Intn(2); k++ {
		cand[vars[rng.Intn(len(vars))]] = randomIDs(rng, st)
	}
	return cand
}

// randomIDs draws an ascending list of distinct dictionary IDs whose
// length runs from 1 to the dictionary size, short lengths likelier: a
// list is as often shorter as longer than the range a scan reads, so
// either side of a one-open-position intersection drives its loop and
// the predicate-only shape's probe-or-range choice goes both ways.
func randomIDs(rng *rand.Rand, st *store.Store) []store.ID {
	n := st.Dict().Len()
	ids := make([]store.ID, 0, n)
	for _, i := range rng.Perm(n)[:1+rng.Intn(1+rng.Intn(n))] {
		ids = append(ids, store.ID(1+i))
	}
	slices.Sort(ids)
	return ids
}

// readersOver returns st followed by the stores its 1-, 2- and 4-shard
// sets open as: split with ShardBySubject, then folded back into one
// store from the concatenated shard triples, as snapshot.OpenShards
// does. Every reader must answer the scan policy identically.
func readersOver(tb testing.TB, st *store.Store) []store.Reader {
	readers := []store.Reader{st}
	for _, k := range []int{1, 2, 4} {
		shards, _, err := st.ShardBySubject(k)
		if err != nil {
			tb.Fatalf("ShardBySubject(%d): %v", k, err)
		}
		var tris []store.EncTriple
		for _, sh := range shards {
			tris = append(tris, sh.Triples()...)
		}
		folded, err := store.FromTriples(st.Dict(), tris)
		if err != nil {
			tb.Fatalf("folding %d shards: %v", k, err)
		}
		readers = append(readers, folded)
	}
	return readers
}

// collectMatches drains MatchPattern from the given seed row into a row
// slice.
func collectMatches(st store.Reader, pat Pattern, seed algebra.Row, cand Candidates) []algebra.Row {
	var out []algebra.Row
	MatchPattern(st, pat, seed, cand, func(r algebra.Row) bool {
		out = append(out, append(algebra.Row(nil), r...))
		return true
	})
	return out
}

func rowsEqual(a, b []algebra.Row) bool {
	return slices.EqualFunc(a, b, slices.Equal[algebra.Row])
}

// randomSeed returns a seed row that pre-binds a random subset of the
// pattern's variables to the components of one stored triple, so seeded
// (non-unit) scans take the bound-variable shapes and usually match.
func randomSeed(rng *rand.Rand, st *store.Store, pat Pattern, width int) algebra.Row {
	tris := st.Triples()
	t := tris[rng.Intn(len(tris))]
	seed := make(algebra.Row, width)
	for sl, id := range [3]store.ID{t.S, t.P, t.O} {
		if pos := pat.at(slot(sl)); pos.IsVar && seed[pos.Var] == store.None && rng.Intn(2) == 0 {
			seed[pos.Var] = id
		}
	}
	return seed
}

// TestQuickMatchOrderSound: the order MatchOrder claims is an order the
// emitted rows actually ascend by — from the unit row and from seeded
// rows, with and without candidate sets, over the plain store and over
// its 1-, 2- and 4-shard sets folded back into one store (which must
// also emit the plain store's rows and claim its order), reaching every
// arm of MatchPattern and every shape of the access-path table. This
// is the contract scanPattern's Order field rests on.
func TestQuickMatchOrderSound(t *testing.T) {
	seen := map[string]bool{}
	var served [len(accessPaths)]bool
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 50+rng.Intn(80))
		readers := readersOver(t, st)
		const width = 4
		for k := 0; k < 8; k++ {
			pat := randomPattern(rng, st)
			cand := randomCandidates(rng, st, BGP{pat})
			for _, row := range []algebra.Row{make(algebra.Row, width), randomSeed(rng, st, pat, width)} {
				bound := func(v int) bool { return row[v] != store.None }
				var wantRows []algebra.Row
				var wantOrder []int
				sh := shapeOf(pat, row)
				pc := candsOf(pat, sh, cand)
				for i, rd := range readers {
					arm := armOf(rd, sh, &pc)
					seen[arm] = true
					served[sh.mask] = served[sh.mask] || !strings.HasPrefix(arm, "probe")
					rows := collectMatches(rd, pat, row, cand)
					order := MatchOrder(rd, pat, bound, cand)
					if !toBag(width, rows).SortedBy(order) {
						t.Logf("reader %d pattern %+v seed %v cand=%v: %d rows not sorted by claimed %v",
							i, pat, row, cand, len(rows), order)
						return false
					}
					if i == 0 {
						wantRows, wantOrder = rows, order
					} else if !slices.Equal(order, wantOrder) || !rowsEqual(rows, wantRows) {
						t.Logf("reader %d pattern %+v seed %v cand=%v: differs from the plain store", i, pat, row, cand)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	for _, arm := range []string{"point", "view", "run", "probe by S", "probe by O"} {
		if !seen[arm] {
			t.Errorf("arm %q never exercised", arm)
		}
	}
	for mask, ok := range served {
		if !ok {
			t.Errorf("shape %03b never served by its own range", mask)
		}
	}
}

// armOf names the arm MatchPattern takes for shape sh under the
// candidate lists pc.
func armOf(st store.Reader, sh shape, pc *posCands) string {
	if by, ok := probeBy(st, sh, pc); ok {
		return "probe by " + string("SPO"[by])
	}
	switch ap := sh.path(); {
	case ap.view != nil:
		return "view"
	case ap.run != nil:
		return "run"
	}
	return "point"
}

// TestQuickEngineOrderClaimsSound: whatever physical order an engine's
// EvalBGP result claims, the rows ascend by it. For the WCO engine this
// exercises the cumulative per-extension-step order; for the binary
// engine the scan orders carried through the order-aware joins. Capped
// at max ∈ {0, 1, 3, 7}, EvalBGPTop must return the first max rows of
// the uncapped bag, pull no more rows than the uncapped run, and claim
// a sound order too — on every tier of both engines.
func TestQuickEngineOrderClaimsSound(t *testing.T) {
	mergeTier := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 50+rng.Intn(80))
		const width = 4
		var bgp BGP
		for i := 0; i < 1+rng.Intn(3); i++ {
			bgp = append(bgp, randomPattern(rng, st))
		}
		cand := randomCandidates(rng, st, bgp)
		if _, ok := mergeJoinOrder(st, bgp[0], bgp[len(bgp)-1]); ok && len(bgp) == 2 && cand == nil {
			mergeTier++
		}
		for _, engine := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
			fullPulled := 0
			full := engine.EvalBGPTop(context.Background(), st, bgp, width, cand, -1, &fullPulled)
			for _, max := range []int{-1, 0, 1, 3, 7} {
				res, pulled := full, fullPulled
				if max >= 0 {
					pulled = 0
					res = engine.EvalBGPTop(context.Background(), st, bgp, width, cand, max, &pulled)
				}
				if !res.SortedBy(res.Order) {
					t.Logf("%s max=%d: bgp %+v cand=%v: %d rows not sorted by claimed %v",
						engine.Name(), max, bgp, cand, res.Len(), res.Order)
					return false
				}
				if max < 0 {
					continue
				}
				prefix := bagRows(full)[:min(max, full.Len())]
				if !rowsEqual(bagRows(res), prefix) || pulled > fullPulled {
					t.Logf("%s max=%d: bgp %+v cand=%v: %d rows (pulled %d), want the first %d of %d (pulled %d)",
						engine.Name(), max, bgp, cand, res.Len(), pulled, len(prefix), full.Len(), fullPulled)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	} else if mergeTier == 0 {
		t.Error("the binary engine's two-pattern merge tier was never exercised")
	}
}

// bagRows lists a bag's rows in physical order.
func bagRows(b *algebra.Bag) []algebra.Row {
	var out []algebra.Row
	for _, r := range b.All() {
		out = append(out, r)
	}
	return out
}
