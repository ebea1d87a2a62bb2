package store

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"sparqluo/internal/rdf"
)

// randTriples returns a reproducible random dataset with enough repeated
// IDs that every access path has multi-element runs, plus literal objects
// so the stats split entities from literals.
func randTriples(rng *rand.Rand, n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		o := "o" + itoa(rng.Intn(10))
		if rng.Intn(4) == 0 {
			o = "\"lit" + itoa(rng.Intn(4)) + "\""
		}
		out = append(out, tri("s"+itoa(rng.Intn(10)), "p"+itoa(rng.Intn(4)), o))
	}
	return out
}

func idSlicesEqual(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAccessorsMatchBruteForce: every accessor agrees with a brute-force
// filter over the deduplicated triple set, and the range accessors return
// ascending (deterministic, contractual) ID order.
func TestAccessorsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, err := FromRDF(randTriples(rng, 100))
		if err != nil {
			t.Fatal(err)
		}

		// Brute-force reference: the deduplicated triple set.
		set := map[EncTriple]bool{}
		for _, tr := range st.Triples() {
			set[tr] = true
		}
		if len(set) != st.NumTriples() {
			t.Logf("Triples() contains duplicates: %d distinct vs NumTriples %d", len(set), st.NumTriples())
			return false
		}
		n := ID(st.Dict().Len() + 2)
		ascending := func(ids []ID) bool {
			return sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] })
		}
		filter := func(match func(EncTriple) bool, project func(EncTriple) ID) []ID {
			var out []ID
			seen := map[ID]bool{}
			for tr := range set {
				if match(tr) && !seen[project(tr)] {
					seen[project(tr)] = true
					out = append(out, project(tr))
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		count := func(match func(EncTriple) bool) int {
			c := 0
			for tr := range set {
				if match(tr) {
					c++
				}
			}
			return c
		}
		for a := ID(1); a <= n; a++ {
			a := a
			if got, want := st.CountS(a), count(func(tr EncTriple) bool { return tr.S == a }); got != want {
				t.Logf("CountS(%d) = %d, want %d", a, got, want)
				return false
			}
			if got, want := st.CountP(a), count(func(tr EncTriple) bool { return tr.P == a }); got != want {
				t.Logf("CountP(%d) = %d, want %d", a, got, want)
				return false
			}
			if got, want := st.CountO(a), count(func(tr EncTriple) bool { return tr.O == a }); got != want {
				t.Logf("CountO(%d) = %d, want %d", a, got, want)
				return false
			}
			if got, want := len(st.SubjectTriples(a)), st.CountS(a); got != want {
				t.Logf("len(SubjectTriples(%d)) = %d, want %d", a, got, want)
				return false
			}
			if got, want := len(st.PredicateTriples(a)), st.CountP(a); got != want {
				t.Logf("len(PredicateTriples(%d)) = %d, want %d", a, got, want)
				return false
			}
			if got, want := len(st.ObjectTriples(a)), st.CountO(a); got != want {
				t.Logf("len(ObjectTriples(%d)) = %d, want %d", a, got, want)
				return false
			}
			subjOfP := st.SubjectsOfPredicate(a)
			if !ascending(subjOfP) || !idSlicesEqual(subjOfP,
				filter(func(tr EncTriple) bool { return tr.P == a }, func(tr EncTriple) ID { return tr.S })) {
				t.Logf("SubjectsOfPredicate(%d) mismatch", a)
				return false
			}
			objOfP := st.ObjectsOfPredicate(a)
			if !ascending(objOfP) || !idSlicesEqual(objOfP,
				filter(func(tr EncTriple) bool { return tr.P == a }, func(tr EncTriple) ID { return tr.O })) {
				t.Logf("ObjectsOfPredicate(%d) mismatch", a)
				return false
			}
			for b := ID(1); b <= n; b++ {
				b := b
				sp := st.ObjectsSP(a, b)
				if !ascending(sp) || !idSlicesEqual(sp,
					filter(func(tr EncTriple) bool { return tr.S == a && tr.P == b }, func(tr EncTriple) ID { return tr.O })) {
					t.Logf("ObjectsSP(%d,%d) mismatch", a, b)
					return false
				}
				po := st.SubjectsPO(a, b)
				if !ascending(po) || !idSlicesEqual(po,
					filter(func(tr EncTriple) bool { return tr.P == a && tr.O == b }, func(tr EncTriple) ID { return tr.S })) {
					t.Logf("SubjectsPO(%d,%d) mismatch", a, b)
					return false
				}
				so := st.PredsSO(a, b)
				if !ascending(so) || !idSlicesEqual(so,
					filter(func(tr EncTriple) bool { return tr.S == a && tr.O == b }, func(tr EncTriple) ID { return tr.P })) {
					t.Logf("PredsSO(%d,%d) mismatch", a, b)
					return false
				}
				if st.CountSP(a, b) != len(sp) || st.CountPO(a, b) != len(po) || st.CountSO(a, b) != len(so) {
					return false
				}
			}
		}
		// Contains: positives for every stored triple, negatives for probes.
		for tr := range set {
			if !st.Contains(tr.S, tr.P, tr.O) {
				t.Logf("Contains(%v) = false for stored triple", tr)
				return false
			}
		}
		for k := 0; k < 50; k++ {
			probe := EncTriple{ID(1 + rng.Intn(int(n))), ID(1 + rng.Intn(int(n))), ID(1 + rng.Intn(int(n)))}
			if st.Contains(probe.S, probe.P, probe.O) != set[probe] {
				t.Logf("Contains(%v) disagrees with brute force", probe)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTriplesCanonicalOrder: Triples() is the canonical (S,P,O)-sorted,
// duplicate-free view regardless of insertion order.
func TestTriplesCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := randTriples(rng, 200)
	rev := slices.Clone(ts)
	slices.Reverse(rev) // reverse insertion order
	a, b := mustBuild(t, ts...), mustBuild(t, rev...)
	ta, tb := a.Triples(), b.Triples()
	if len(ta) != len(tb) {
		t.Fatalf("triple counts differ: %d vs %d", len(ta), len(tb))
	}
	// Dictionary IDs depend on insertion order, so the two stores are
	// compared as sets of decoded triples.
	decode := func(st *Store, ts []EncTriple) map[rdf.Triple]bool {
		out := map[rdf.Triple]bool{}
		d := st.Dict().Terms()
		for i, tr := range ts {
			if i > 0 && cmpSPO(ts[i-1], ts[i]) >= 0 {
				t.Fatalf("Triples() not strictly (S,P,O)-sorted at %d", i)
			}
			out[rdf.Triple{S: d.Term(tr.S), P: d.Term(tr.P), O: d.Term(tr.O)}] = true
		}
		return out
	}
	sa, sb := decode(a, ta), decode(b, tb)
	if len(sa) != len(ta) || len(sb) != len(tb) {
		t.Fatal("Triples() contains duplicates")
	}
	for k := range sa {
		if !sb[k] {
			t.Fatalf("triple %s missing from reverse-loaded store", k)
		}
	}
}

// TestMemStats: the footprint report is internally consistent and scales
// with the data.
func TestMemStats(t *testing.T) {
	st := mustBuild(t, randTriples(rand.New(rand.NewSource(11)), 300)...)
	m := st.MemStats()
	if m.LogTriples != 0 || m.LogBytes != 0 {
		t.Errorf("a built store holds no pending triples: %+v", m)
	}
	if m.Triples != st.NumTriples() {
		t.Errorf("Triples = %d, want %d", m.Triples, st.NumTriples())
	}
	// Each permutation holds at least the triple array plus its column
	// (16 bytes per triple); the level-1 runs differ per permutation.
	floor := int64(m.Triples) * 16
	if m.SPOBytes < floor || m.POSBytes < floor || m.OSPBytes < floor {
		t.Errorf("permutation sizes below triple-array floor %d: %+v", floor, m)
	}
	if m.DictBytes <= 0 {
		t.Errorf("DictBytes should count term string data: %+v", m)
	}
	if m.TotalBytes != m.LogBytes+m.SPOBytes+m.POSBytes+m.OSPBytes+m.DictBytes {
		t.Errorf("TotalBytes inconsistent: %+v", m)
	}
	if m.DictIndexBytes <= m.DictBytes {
		t.Errorf("DictIndexBytes should cover the term bytes plus records and index: %+v", m)
	}
	if m.String() == "" {
		t.Error("String() empty")
	}

	// Pending triples are counted without building: duplicates are
	// held, not stored twice.
	pending := slices.Concat(st.Triples(), st.Triples())
	before := slices.Clone(pending)
	p := PendingMemStats(st.Dict(), pending)
	if p.Triples != st.NumTriples() || p.LogTriples != len(pending) || p.LogBytes != int64(len(pending))*12 ||
		p.SPOBytes != 0 || p.TotalBytes != p.LogBytes+m.DictBytes {
		t.Errorf("PendingMemStats over %d triples (%d distinct) = %+v", len(pending), st.NumTriples(), p)
	}
	if !slices.Equal(pending, before) {
		t.Error("PendingMemStats reordered its input")
	}
}
