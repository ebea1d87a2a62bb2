package store

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sparqluo/internal/rdf"
)

func tri(s, p, o string) rdf.Triple {
	mk := func(x string) rdf.Term {
		if strings.HasPrefix(x, "\"") {
			return rdf.NewLiteral(strings.Trim(x, "\""))
		}
		return rdf.NewIRI(x)
	}
	return rdf.Triple{S: mk(s), P: mk(p), O: mk(o)}
}

// mustBuild builds a store over ts with FromRDF.
func mustBuild(t testing.TB, ts ...rdf.Triple) *Store {
	t.Helper()
	st, err := FromRDF(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAddAndScan(t *testing.T) {
	st := mustBuild(t,
		tri("s1", "p1", "o1"),
		tri("s1", "p1", "o2"),
		tri("s2", "p1", "o1"),
		tri("s1", "p2", "o1"))

	d := st.Dict()
	s1, _ := d.Lookup(rdf.NewIRI("s1"))
	p1, _ := d.Lookup(rdf.NewIRI("p1"))
	o1, _ := d.Lookup(rdf.NewIRI("o1"))

	if got := len(st.ObjectsSP(s1, p1)); got != 2 {
		t.Errorf("ObjectsSP = %d, want 2", got)
	}
	if got := len(st.SubjectsPO(p1, o1)); got != 2 {
		t.Errorf("SubjectsPO = %d, want 2", got)
	}
	if !st.Contains(s1, p1, o1) {
		t.Error("Contains should be true")
	}
	if st.NumTriples() != 4 {
		t.Errorf("NumTriples = %d, want 4", st.NumTriples())
	}
	if got := st.CountP(p1); got != 3 {
		t.Errorf("CountP = %d, want 3", got)
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	st := mustBuild(t, tri("s", "p", "o"), tri("s", "p", "o"))
	if st.NumTriples() != 1 {
		t.Errorf("duplicate triple stored: %d", st.NumTriples())
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []rdf.Term{
		rdf.NewIRI("http://a"),
		rdf.NewLiteral("x"),
		rdf.NewLangLiteral("x", "en"),
		rdf.NewTypedLiteral("x", "dt"),
		rdf.NewBlank("b"),
	}
	ids := map[ID]bool{}
	for _, tm := range terms {
		id := d.Encode(tm)
		if ids[id] {
			t.Errorf("duplicate ID %d", id)
		}
		ids[id] = true
		if id2 := d.Encode(tm); id2 != id {
			t.Errorf("re-encode changed ID: %d → %d", id, id2)
		}
		if got := d.Terms().Term(id); !got.Equal(tm) {
			t.Errorf("decode(%d) = %v, want %v", id, got, tm)
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
	if _, ok := d.Lookup(rdf.NewIRI("http://missing")); ok {
		t.Error("Lookup of missing term should report false")
	}
}

func TestStats(t *testing.T) {
	st := mustBuild(t,
		tri("s1", "p1", "o1"),
		tri("s1", "p1", "o2"),
		tri("s2", "p1", "o2"),
		tri("s1", "p2", `"lit"`))
	s := st.Stats()
	if s.NumTriples != 4 {
		t.Errorf("NumTriples = %d", s.NumTriples)
	}
	if s.NumPreds != 2 {
		t.Errorf("NumPreds = %d", s.NumPreds)
	}
	if s.NumLiterals != 1 {
		t.Errorf("NumLiterals = %d", s.NumLiterals)
	}
	// entities: s1, s2, o1, o2 (p1/p2 are predicates, lit is a literal)
	if s.NumEntities != 4 {
		t.Errorf("NumEntities = %d, want 4", s.NumEntities)
	}
	d := st.Dict()
	p1, _ := d.Lookup(rdf.NewIRI("p1"))
	if got := s.AvgOutDegree(p1); got != 1.5 {
		t.Errorf("AvgOutDegree(p1) = %v, want 1.5 (3 triples / 2 subjects)", got)
	}
	if got := s.AvgInDegree(p1); got != 1.5 {
		t.Errorf("AvgInDegree(p1) = %v, want 1.5 (3 triples / 2 objects)", got)
	}
	if got := s.AvgOutDegree(ID(9999)); got != 1 {
		t.Errorf("AvgOutDegree(unknown) = %v, want 1", got)
	}
}

// naiveStats counts every Stats field over a set of distinct triples
// with maps, independently of the permutation arrays computeStats reads.
func naiveStats(d *Dict, set map[EncTriple]bool) *Stats {
	s := &Stats{
		NumTriples:   len(set),
		PredCount:    map[ID]int{},
		PredSubjects: map[ID]int{},
		PredObjects:  map[ID]int{},
	}
	subjects, objects := map[[2]ID]bool{}, map[[2]ID]bool{}
	entities, literals := map[ID]bool{}, map[ID]bool{}
	for t := range set {
		s.PredCount[t.P]++
		if !subjects[[2]ID{t.P, t.S}] {
			subjects[[2]ID{t.P, t.S}] = true
			s.PredSubjects[t.P]++
		}
		if !objects[[2]ID{t.P, t.O}] {
			objects[[2]ID{t.P, t.O}] = true
			s.PredObjects[t.P]++
		}
		entities[t.S] = true
		if d.Terms().Term(t.O).IsLiteral() {
			literals[t.O] = true
		} else {
			entities[t.O] = true
		}
	}
	s.NumPreds, s.NumEntities, s.NumLiterals = len(s.PredCount), len(entities), len(literals)
	return s
}

// TestQuickStatsMatchNaiveCount: every Stats field of a random store
// equals a naive count over its distinct triples, for stores built by
// FromTriples (duplicates in the input) and by MergeFold.
func TestQuickStatsMatchNaiveCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := randTriples(rng, 1+rng.Intn(200))
		built, err := FromRDF(ts)
		if err != nil {
			t.Fatal(err)
		}
		set := map[EncTriple]bool{}
		for _, tr := range ts {
			set[built.Dict().EncodeTriple(tr)] = true
		}
		if want := naiveStats(built.Dict(), set); !reflect.DeepEqual(built.Stats(), want) {
			t.Logf("FromTriples seed %d: stats %+v, want %+v", seed, built.Stats(), want)
			return false
		}

		c := randFoldCase(rng)
		folded, err := c.fold()
		if err != nil {
			t.Fatal(err)
		}
		set = map[EncTriple]bool{}
		for _, tr := range c.base.Triples() {
			set[tr] = true
		}
		for _, tr := range c.dels {
			delete(set, tr)
		}
		for _, tr := range c.adds {
			set[tr] = true
		}
		if want := naiveStats(folded.Dict(), set); !reflect.DeepEqual(folded.Stats(), want) {
			t.Logf("MergeFold seed %d: stats %+v, want %+v", seed, folded.Stats(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLoadNTriples(t *testing.T) {
	ts, err := rdf.ParseAll(strings.NewReader(`
<http://e/s> <http://e/p> "v" .
<http://e/s> <http://e/p> <http://e/o> .
`))
	if err != nil {
		t.Fatal(err)
	}
	if st := mustBuild(t, ts...); st.NumTriples() != 2 {
		t.Errorf("NumTriples = %d", st.NumTriples())
	}
	if _, err := rdf.ParseAll(strings.NewReader("garbage")); err == nil {
		t.Error("want error for bad input")
	}
}

func TestOrderedScansDeterministic(t *testing.T) {
	build := func() *Store {
		rng := rand.New(rand.NewSource(9))
		var ts []rdf.Triple
		for i := 0; i < 500; i++ {
			ts = append(ts, tri(
				"s"+itoa(rng.Intn(40)),
				"p"+itoa(rng.Intn(3)),
				"o"+itoa(rng.Intn(40))))
		}
		return mustBuild(t, ts...)
	}
	a, b := build(), build()
	d := a.Dict()
	p0, _ := d.Lookup(rdf.NewIRI("p0"))
	sa := a.SubjectsOfPredicate(p0)
	sb := b.SubjectsOfPredicate(p0)
	if len(sa) != len(sb) {
		t.Fatalf("lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + itoa(n%10)
}

// TestQuickScansMatchBruteForce: every index access path returns exactly
// the triples a brute-force filter of the triple list returns.
func TestQuickScansMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type raw struct{ s, p, o int }
		var raws []raw
		var ts []rdf.Triple
		for i := 0; i < 60; i++ {
			r := raw{rng.Intn(8), rng.Intn(3), rng.Intn(8)}
			raws = append(raws, r)
			ts = append(ts, tri("s"+itoa(r.s), "p"+itoa(r.p), "o"+itoa(r.o)))
		}
		st := mustBuild(t, ts...)
		d := st.Dict()
		lookup := func(x string) ID {
			id, _ := d.Lookup(rdf.NewIRI(x))
			return id
		}
		// Check (s,p,?) and (?,p,o) for random probes.
		for k := 0; k < 10; k++ {
			s, p, o := rng.Intn(8), rng.Intn(3), rng.Intn(8)
			sid, pid, oid := lookup("s"+itoa(s)), lookup("p"+itoa(p)), lookup("o"+itoa(o))
			wantSP, wantPO, wantSPO := 0, 0, false
			seen := map[raw]bool{}
			for _, r := range raws {
				if seen[r] {
					continue // store dedupes
				}
				seen[r] = true
				if r.s == s && r.p == p {
					wantSP++
				}
				if r.p == p && r.o == o {
					wantPO++
				}
				if r.s == s && r.p == p && r.o == o {
					wantSPO = true
				}
			}
			if len(st.ObjectsSP(sid, pid)) != wantSP {
				return false
			}
			if len(st.SubjectsPO(pid, oid)) != wantPO {
				return false
			}
			if st.Contains(sid, pid, oid) != wantSPO {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
