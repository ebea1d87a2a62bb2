package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"sparqluo/internal/algebra"
	"sparqluo/internal/qgen"
	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

func randomStore(rng *rand.Rand, n int) *store.Store {
	st, err := store.FromRDF(qgen.RandomDataset(rng, n))
	if err != nil {
		panic(err)
	}
	return st
}

// randomPattern builds an encoded pattern over a random store, reusing
// its dictionary so constants often exist.
func randomPattern(rng *rand.Rand, st *store.Store) Pattern {
	triples := st.Triples()
	pick := func() store.EncTriple { return triples[rng.Intn(len(triples))] }
	pos := func(id store.ID, varIdx int) Pos {
		if rng.Intn(2) == 0 {
			return Var(varIdx)
		}
		return Const(id)
	}
	t := pick()
	return Pattern{
		S: pos(t.S, rng.Intn(4)),
		P: pos(t.P, rng.Intn(4)),
		O: pos(t.O, rng.Intn(4)),
	}
}

// bruteMatches enumerates matches of a pattern by scanning all triples.
func bruteMatches(st *store.Store, pat Pattern, width int) []algebra.Row {
	var out []algebra.Row
	for _, t := range st.Triples() {
		row := make(algebra.Row, width)
		ok := true
		bind := func(p Pos, id store.ID) {
			if !ok {
				return
			}
			if !p.IsVar {
				if p.ID != id {
					ok = false
				}
				return
			}
			if row[p.Var] != store.None && row[p.Var] != id {
				ok = false
				return
			}
			row[p.Var] = id
		}
		bind(pat.S, t.S)
		bind(pat.P, t.P)
		bind(pat.O, t.O)
		if ok {
			out = append(out, row)
		}
	}
	return out
}

func toBag(width int, rows []algebra.Row) *algebra.Bag {
	b := algebra.NewBag(width)
	for _, r := range rows {
		b.Append(r)
	}
	return b
}

// TestQuickMatchPatternMatchesBruteForce: MatchPattern over the indexes
// agrees with a full scan, for every boundness combination.
func TestQuickMatchPatternMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 50+rng.Intn(50))
		const width = 4
		for k := 0; k < 8; k++ {
			pat := randomPattern(rng, st)
			var got []algebra.Row
			MatchPattern(st, pat, make(algebra.Row, width), nil, func(r algebra.Row) bool {
				got = append(got, slices.Clone(r))
				return true
			})
			want := bruteMatches(st, pat, width)
			if !algebra.MultisetEqual(toBag(width, got), toBag(width, want)) {
				t.Logf("pattern %+v: got %d want %d", pat, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickExactCountMatchesBruteForce: the index-derived count equals
// the brute-force match count on the plain store and on its 1-, 2- and
// 4-shard sets folded back into one store, and under a seeded row the table's range size equals
// the number of rows the scan enumerates.
func TestQuickExactCountMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 60)
		readers := readersOver(t, st)
		for k := 0; k < 8; k++ {
			pat := randomPattern(rng, st)
			row := randomSeed(rng, st, pat, 4)
			for i, rd := range readers {
				if got, want := ExactCount(rd, pat), len(bruteMatches(st, pat, 4)); got != want {
					t.Logf("reader %d pattern %+v: ExactCount %d, brute force %d", i, pat, got, want)
					return false
				}
				if repeatedVar(pat) {
					continue // the range size is only an upper bound
				}
				if got, want := shapeOf(pat, row).count(rd), len(collectMatches(rd, pat, row, nil)); got != want {
					t.Logf("reader %d pattern %+v seed %v: table count %d, enumerated %d", i, pat, row, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnginesAgree: the WCO and binary-join engines produce the same
// bags on random BGPs.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 60+rng.Intn(60))
		const width = 4
		var bgp BGP
		for i := 0; i < 1+rng.Intn(3); i++ {
			bgp = append(bgp, randomPattern(rng, st))
		}
		a := WCOEngine{}.EvalBGP(context.Background(), st, bgp, width, nil)
		b := BinaryJoinEngine{}.EvalBGP(context.Background(), st, bgp, width, nil)
		if !algebra.MultisetEqual(a, b) {
			t.Logf("bgp %+v: wco %d, binary %d", bgp, a.Len(), b.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickCandidatesAreExactFilter: evaluating with candidate sets must
// equal evaluating without and then filtering rows by the candidates.
func TestQuickCandidatesAreExactFilter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 80)
		const width = 4
		var bgp BGP
		for i := 0; i < 1+rng.Intn(2); i++ {
			bgp = append(bgp, randomPattern(rng, st))
		}
		vars := bgp.Vars()
		if len(vars) == 0 {
			return true
		}
		// Build a random candidate list for one variable and, now and
		// then, a present but empty one for another, which allows nothing.
		v := vars[rng.Intn(len(vars))]
		cand := Candidates{v: randomIDs(rng, st)}
		if w := vars[rng.Intn(len(vars))]; w != v && rng.Intn(3) == 0 {
			cand[w] = []store.ID{}
		}
		for _, engine := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
			pruned := engine.EvalBGP(context.Background(), st, bgp, width, cand)
			plain := engine.EvalBGP(context.Background(), st, bgp, width, nil)
			want := algebra.NewBag(width)
			for _, r := range plain.All() {
				if allowedByLists(cand, r) {
					want.Append(r)
				}
			}
			if !algebra.MultisetEqual(pruned, want) {
				t.Logf("%s: pruned %d, filtered %d (candidates %v)",
					engine.Name(), pruned.Len(), want.Len(), cand)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// allowedByLists reports whether every variable with a candidate list
// binds one of its IDs in r.
func allowedByLists(cand Candidates, r algebra.Row) bool {
	for v, set := range cand {
		if !slices.Contains(set, r[v]) {
			return false
		}
	}
	return true
}

func TestEmptyBGPYieldsUnit(t *testing.T) {
	st := randomStore(rand.New(rand.NewSource(1)), 20)
	for _, engine := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
		got := engine.EvalBGP(context.Background(), st, nil, 3, nil)
		if got.Len() != 1 {
			t.Errorf("%s: empty BGP should yield the unit bag, got %d rows", engine.Name(), got.Len())
		}
	}
}

func TestImpossiblePatternYieldsEmpty(t *testing.T) {
	st := randomStore(rand.New(rand.NewSource(2)), 20)
	bgp := BGP{{S: Var(0), P: Const(store.None), O: Var(1)}}
	for _, engine := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
		if got := engine.EvalBGP(context.Background(), st, bgp, 2, nil); got.Len() != 0 {
			t.Errorf("%s: impossible pattern should be empty, got %d", engine.Name(), got.Len())
		}
	}
}

func TestRepeatedVariableWithinPattern(t *testing.T) {
	self := qgen.RandomDataset(rand.New(rand.NewSource(3)), 1)[0]
	self.O = self.S // force a self-loop
	other := self
	other.O = qgen.RandomDataset(rand.New(rand.NewSource(4)), 1)[0].S
	st, err := store.FromRDF([]rdf.Triple{self, other})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := st.Dict().Lookup(self.P)
	bgp := BGP{{S: Var(0), P: Const(p), O: Var(0)}} // ?x p ?x
	for _, engine := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
		got := engine.EvalBGP(context.Background(), st, bgp, 1, nil)
		if got.Len() != 1 {
			t.Errorf("%s: self-loop pattern: got %d rows, want 1", engine.Name(), got.Len())
		}
	}
}

func TestEstimatesSane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := randomStore(rng, 200)
	for trial := 0; trial < 30; trial++ {
		var bgp BGP
		for i := 0; i < 1+rng.Intn(3); i++ {
			bgp = append(bgp, randomPattern(rng, st))
		}
		for _, engine := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
			card := engine.EstimateCard(context.Background(), st, bgp)
			cost := engine.EstimateCost(context.Background(), st, bgp)
			if card < 0 || cost < 0 {
				t.Fatalf("%s: negative estimate card=%v cost=%v", engine.Name(), card, cost)
			}
		}
	}
	// Single-pattern estimates are exact.
	pat := randomPattern(rng, st)
	exact := float64(ExactCount(st, pat))
	if got := (WCOEngine{}).EstimateCard(context.Background(), st, BGP{pat}); got != exact {
		t.Errorf("single-pattern estimate %v, want exact %v", got, exact)
	}
}

// TestEstimateSamplingStopsAtSampleSize: estimating a single pattern
// draws the first sampleSize matches and stops the scan — its cost must
// not grow with the number of matches (the count comes off the index).
// The scan's emissions are not observable from outside MatchPattern, so
// the test compares best-of-N times of two estimates that do identical
// work when sampling stops: enumerating every match of the large
// predicate instead is hundreds of times slower, far outside the bound.
func TestEstimateSamplingStopsAtSampleSize(t *testing.T) {
	const matches = 1500 * sampleSize
	iri := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/%s%d", kind, i)) }
	var ts []rdf.Triple
	for i := 0; i < matches; i++ {
		ts = append(ts, rdf.Triple{S: iri("s", i), P: iri("p", 0), O: iri("o", i%97)})
	}
	for i := 0; i < sampleSize; i++ {
		ts = append(ts, rdf.Triple{S: iri("s", i), P: iri("p", 1), O: iri("o", i%97)})
	}
	st, err := store.FromRDF(ts)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(i int) Pattern {
		id, _ := st.Dict().Lookup(iri("p", i))
		return Pattern{S: Var(0), P: Const(id), O: Var(1)}
	}
	best := func(pat Pattern, want float64) time.Duration {
		fastest := time.Duration(math.MaxInt64)
		for i := 0; i < 20; i++ {
			start := time.Now()
			got := (WCOEngine{}).EstimateCard(context.Background(), st, BGP{pat})
			fastest = min(fastest, time.Since(start))
			if got != want {
				t.Fatalf("estimate %v, want exact %v", got, want)
			}
		}
		return fastest
	}
	small, large := best(pred(1), sampleSize), best(pred(0), matches)
	if large > 20*small {
		t.Errorf("estimating a %d-match pattern took %v, a %d-match pattern %v: sampling did not stop at %d rows",
			matches, large, sampleSize, small, sampleSize)
	}
}

// TestCandidatesAllows checks the membership test MatchPattern applies:
// a position is restricted only when it is an unbound variable with an
// entry, and then allows exactly its list.
func TestCandidatesAllows(t *testing.T) {
	allows := func(c Candidates, pat Pattern, row algebra.Row, sl slot, id store.ID) bool {
		pc := candsOf(pat, shapeOf(pat, row), c)
		return !pc.restricted[sl] || inList(pc.list[sl], id)
	}
	pat := Pattern{S: Var(0), P: Var(1), O: Var(2)}
	free := make(algebra.Row, 3)
	if !allows(nil, pat, free, slotS, 5) {
		t.Error("nil candidates must allow everything")
	}
	c := Candidates{1: {3, 7, 12}, 2: {}}
	if !allows(c, pat, free, slotS, 99) {
		t.Error("unconstrained variable must allow everything")
	}
	in := func(id store.ID) bool { return allows(c, pat, free, slotP, id) }
	if !in(3) || !in(7) || !in(12) || in(8) || in(1) || in(13) {
		t.Error("constrained variable must filter")
	}
	if allows(c, pat, free, slotO, 7) {
		t.Error("an empty list must allow nothing")
	}
	if !allows(c, pat, algebra.Row{0, 8, 0}, slotP, 8) {
		t.Error("a position the row binds is not restricted")
	}
	if !allows(c, Pattern{S: Var(0), P: Const(8), O: Var(2)}, free, slotP, 8) {
		t.Error("a ground position is not restricted")
	}
}

func TestGreedyOrderConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	st := randomStore(rng, 100)
	// A chain: ?a p ?b, ?b p ?c, ?c p ?d — order must be connected.
	triples := st.Triples()
	p := triples[0].P
	bgp := BGP{
		{S: Var(0), P: Const(p), O: Var(1)},
		{S: Var(1), P: Const(p), O: Var(2)},
		{S: Var(2), P: Const(p), O: Var(3)},
	}
	order := greedyOrderWithCands(st, bgp, nil)
	bound := map[int]bool{}
	for i, idx := range order {
		if i > 0 {
			conn := false
			for _, v := range bgp[idx].Vars() {
				if bound[v] {
					conn = true
				}
			}
			if !conn {
				t.Fatalf("order %v disconnects at step %d", order, i)
			}
		}
		for _, v := range bgp[idx].Vars() {
			bound[v] = true
		}
	}
}
