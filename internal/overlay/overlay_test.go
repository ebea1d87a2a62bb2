package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"sparqluo/internal/rdf"
	"sparqluo/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func tri(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

func baseStore(ts []rdf.Triple) *store.Store {
	st, err := store.FromRDF(ts)
	if err != nil {
		panic(err)
	}
	return st
}

// checkEquiv asserts that every Reader accessor of the live store's
// current view answers exactly like a store rebuilt from scratch over
// the model triple set (sharing the same dictionary, so IDs line up).
func checkEquiv(t *testing.T, ls *LiveStore, model map[string]rdf.Triple) {
	t.Helper()
	d := ls.Dict()
	exp := make([]store.EncTriple, 0, len(model))
	for _, tr := range model {
		s, ok1 := d.Lookup(tr.S)
		p, ok2 := d.Lookup(tr.P)
		o, ok3 := d.Lookup(tr.O)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("model triple %v has terms missing from the dict", tr)
		}
		exp = append(exp, store.EncTriple{S: s, P: p, O: o})
	}
	ref, err := store.FromTriples(d, exp)
	if err != nil {
		t.Fatal(err)
	}
	v := ls.View()

	if v.NumTriples() != ref.NumTriples() {
		t.Fatalf("NumTriples = %d, want %d", v.NumTriples(), ref.NumTriples())
	}
	if !slices.Equal(v.Triples(), ref.Triples()) {
		t.Fatalf("Triples() diverges from rebuilt store")
	}
	for id := store.ID(1); int(id) <= d.Len(); id++ {
		if got, want := v.SubjectTriples(id), ref.SubjectTriples(id); !slices.Equal(got, want) {
			t.Fatalf("SubjectTriples(%d) = %v, want %v", id, got, want)
		}
		if got, want := v.PredicateTriples(id), ref.PredicateTriples(id); !slices.Equal(got, want) {
			t.Fatalf("PredicateTriples(%d) = %v, want %v", id, got, want)
		}
		if got, want := v.ObjectTriples(id), ref.ObjectTriples(id); !slices.Equal(got, want) {
			t.Fatalf("ObjectTriples(%d) = %v, want %v", id, got, want)
		}
		if got, want := v.SubjectsOfPredicate(id), ref.SubjectsOfPredicate(id); !slices.Equal(got, want) {
			t.Fatalf("SubjectsOfPredicate(%d) = %v, want %v", id, got, want)
		}
		if got, want := v.ObjectsOfPredicate(id), ref.ObjectsOfPredicate(id); !slices.Equal(got, want) {
			t.Fatalf("ObjectsOfPredicate(%d) = %v, want %v", id, got, want)
		}
		if got, want := v.CountS(id), ref.CountS(id); got != want {
			t.Fatalf("CountS(%d) = %d, want %d", id, got, want)
		}
		if got, want := v.CountP(id), ref.CountP(id); got != want {
			t.Fatalf("CountP(%d) = %d, want %d", id, got, want)
		}
		if got, want := v.CountO(id), ref.CountO(id); got != want {
			t.Fatalf("CountO(%d) = %d, want %d", id, got, want)
		}
	}
	for _, tr := range ref.Triples() {
		if !v.Contains(tr.S, tr.P, tr.O) {
			t.Fatalf("Contains(%v) = false for present triple", tr)
		}
		if got, want := v.ObjectsSP(tr.S, tr.P), ref.ObjectsSP(tr.S, tr.P); !slices.Equal(got, want) {
			t.Fatalf("ObjectsSP(%d,%d) = %v, want %v", tr.S, tr.P, got, want)
		}
		if got, want := v.SubjectsPO(tr.P, tr.O), ref.SubjectsPO(tr.P, tr.O); !slices.Equal(got, want) {
			t.Fatalf("SubjectsPO(%d,%d) = %v, want %v", tr.P, tr.O, got, want)
		}
		if got, want := v.PredsSO(tr.S, tr.O), ref.PredsSO(tr.S, tr.O); !slices.Equal(got, want) {
			t.Fatalf("PredsSO(%d,%d) = %v, want %v", tr.S, tr.O, got, want)
		}
		if got, want := v.CountSP(tr.S, tr.P), ref.CountSP(tr.S, tr.P); got != want {
			t.Fatalf("CountSP(%d,%d) = %d, want %d", tr.S, tr.P, got, want)
		}
		if got, want := v.CountPO(tr.P, tr.O), ref.CountPO(tr.P, tr.O); got != want {
			t.Fatalf("CountPO(%d,%d) = %d, want %d", tr.P, tr.O, got, want)
		}
		if got, want := v.CountSO(tr.S, tr.O), ref.CountSO(tr.S, tr.O); got != want {
			t.Fatalf("CountSO(%d,%d) = %d, want %d", tr.S, tr.O, got, want)
		}
	}
}

// TestRandomOpsMatchRebuiltStore drives a live store with random
// insert/delete batches (duplicates, re-inserts, deletes of absent
// triples, interleaved compactions) and asserts after every round that
// every accessor answers exactly like a store rebuilt from the model.
func TestRandomOpsMatchRebuiltStore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randTriple := func() rdf.Triple {
		return tri(
			fmt.Sprintf("s%d", rng.Intn(20)),
			fmt.Sprintf("p%d", rng.Intn(5)),
			fmt.Sprintf("s%d", rng.Intn(25)), // objects overlap subjects for join shapes
		)
	}
	model := map[string]rdf.Triple{}
	var baseTs []rdf.Triple
	for i := 0; i < 150; i++ {
		tr := randTriple()
		baseTs = append(baseTs, tr)
		model[tr.String()] = tr
	}
	ls := New(baseStore(baseTs), Options{})
	checkEquiv(t, ls, model)

	for round := 0; round < 40; round++ {
		var ins []rdf.Triple
		for i := 0; i < 1+rng.Intn(8); i++ {
			tr := randTriple()
			ins = append(ins, tr)
			model[tr.String()] = tr
		}
		ls.Insert(ins...)
		var dels []rdf.Triple
		for i := 0; i < rng.Intn(6); i++ {
			tr := randTriple()
			dels = append(dels, tr)
			delete(model, tr.String())
		}
		ls.Delete(dels...)
		if round%7 == 3 {
			if err := ls.Flush(); err != nil {
				t.Fatalf("round %d: Flush: %v", round, err)
			}
		}
		checkEquiv(t, ls, model)
	}
	if err := ls.Flush(); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	checkEquiv(t, ls, model)
	if got := ls.LiveStats(); got.MemtableOps != 0 || got.Tombstones != 0 {
		t.Errorf("quiesced store still reports memtable state: %+v", got)
	}
}

func TestTombstoneLifecycle(t *testing.T) {
	ls := New(baseStore([]rdf.Triple{tri("s", "p", "o"), tri("s", "p", "o2")}), Options{})
	ls.Delete(tri("s", "p", "o"))
	if ls.View().Contains(1, 2, 3) { // s=1 p=2 o=3 in insertion order
		t.Error("deleted triple still visible")
	}
	if ls.View().NumTriples() != 1 {
		t.Errorf("NumTriples = %d, want 1", ls.View().NumTriples())
	}
	st := ls.LiveStats()
	if st.Tombstones != 1 {
		t.Errorf("Tombstones = %d, want 1", st.Tombstones)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	if ls.Base().NumTriples() != 1 {
		t.Errorf("base after compaction = %d triples, want 1 (tombstone must annihilate)", ls.Base().NumTriples())
	}
	// Re-insert resurrects the triple.
	ls.Insert(tri("s", "p", "o"))
	if !ls.View().Contains(1, 2, 3) {
		t.Error("re-inserted triple not visible")
	}
}

func TestDeleteUnknownTermsDoesNotGrowDict(t *testing.T) {
	ls := New(baseStore([]rdf.Triple{tri("s", "p", "o")}), Options{})
	n := ls.Dict().Len()
	ls.Delete(tri("nope", "p", "o"))
	if ls.Dict().Len() != n {
		t.Errorf("Delete of unknown term grew the dict: %d -> %d", n, ls.Dict().Len())
	}
	if ls.View().NumTriples() != 1 {
		t.Errorf("NumTriples = %d, want 1", ls.View().NumTriples())
	}
}

func TestViewCachedBetweenWrites(t *testing.T) {
	ls := New(baseStore([]rdf.Triple{tri("s", "p", "o")}), Options{})
	v1 := ls.View()
	if v2 := ls.View(); v1 != v2 {
		t.Error("views between writes should be shared")
	}
	ls.Insert(tri("s2", "p", "o"))
	v3 := ls.View()
	if v3 == v1 {
		t.Error("view not invalidated by a write")
	}
	// The old view still answers from its epoch.
	if v1.NumTriples() != 1 {
		t.Errorf("pinned old view mutated: %d triples", v1.NumTriples())
	}
	if v3.NumTriples() != 2 {
		t.Errorf("new view = %d triples, want 2", v3.NumTriples())
	}
}

// TestBatchAtomicity inserts correlated pairs from a writer goroutine
// and asserts no view ever exposes half a batch.
func TestBatchAtomicity(t *testing.T) {
	ls := New(nil, Options{})
	const n = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			ls.Insert(tri(fmt.Sprintf("s%d", i), "p", "a"), tri(fmt.Sprintf("s%d", i), "q", "b"))
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		v := ls.View()
		d := v.Dict()
		p, okP := d.Lookup(iri("p"))
		q, okQ := d.Lookup(iri("q"))
		if okP && okQ {
			if got, want := v.CountP(p), v.CountP(q); got != want {
				t.Fatalf("torn batch visible: %d p-triples vs %d q-triples", got, want)
			}
		}
		select {
		case <-done:
			if got := ls.View().NumTriples(); got != 2*n {
				t.Fatalf("final NumTriples = %d, want %d", got, 2*n)
			}
			return
		default:
		}
	}
}

func TestStartCompactionThreshold(t *testing.T) {
	ls := New(nil, Options{})
	stop := ls.StartCompaction(CompactionOptions{Interval: time.Hour, Threshold: 50})
	defer stop()
	for i := 0; i < 60; i++ {
		ls.Insert(tri(fmt.Sprintf("s%d", i), "p", "o"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := ls.LiveStats(); st.Compactions >= 1 {
			if ls.Base().NumTriples() != 60 {
				t.Fatalf("compacted base = %d triples, want 60", ls.Base().NumTriples())
			}
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("threshold compaction did not run within 5s")
}

func TestCompactEmptyMemtableIsNoop(t *testing.T) {
	ls := New(baseStore([]rdf.Triple{tri("s", "p", "o")}), Options{})
	before := ls.Base()
	cs, err := ls.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Merged != 0 || cs.Adds != 0 || cs.Dels != 0 {
		t.Errorf("empty compaction reported work: %+v", cs)
	}
	if ls.Base() != before {
		t.Error("empty compaction swapped the base")
	}
	// Pure no-op ops (delete absent, re-insert present) also keep the base.
	ls.Insert(tri("s", "p", "o"))
	ls.Delete(tri("zz", "p", "o"))
	if _, err := ls.Compact(); err != nil {
		t.Fatal(err)
	}
	if ls.Base() != before {
		t.Error("no-op memtable compaction rebuilt the base")
	}
	if ls.pendingOps() != 0 {
		t.Errorf("pendingOps = %d after compaction, want 0", ls.pendingOps())
	}
}
