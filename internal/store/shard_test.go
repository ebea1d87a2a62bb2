package store

import (
	"math/rand"
	"reflect"
	"testing"

	"sparqluo/internal/rdf"
)

// shardTestStore builds a store with enough subjects that every shard
// count in the tests yields non-trivial partitions.
func shardTestStore(t testing.TB, nTriples int) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var ts []rdf.Triple
	for i := 0; i < nTriples; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.NewIRI("http://ex/s" + string(rune('a'+rng.Intn(40)))),
			P: rdf.NewIRI("http://ex/p" + string(rune('a'+rng.Intn(6)))),
			O: rdf.NewIRI("http://ex/o" + string(rune('a'+rng.Intn(25)))),
		})
	}
	return mustBuild(t, ts...)
}

// TestShardBySubject checks the partition invariants for a sweep of
// shard counts: bounds cover [0, maxID+1) contiguously, every shard is
// built over the shared dictionary, per-shard triples are exactly the
// subject-range slice of the original SPO permutation, and nothing is
// lost or duplicated.
func TestShardBySubject(t *testing.T) {
	st := shardTestStore(t, 600)
	maxID := ID(st.Dict().Len())
	for k := 1; k <= 6; k++ {
		shards, bounds, err := st.ShardBySubject(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(shards) != k || len(bounds) != k+1 {
			t.Fatalf("k=%d: got %d shards, %d bounds", k, len(shards), len(bounds))
		}
		if bounds[0] != 0 || bounds[k] != maxID+1 {
			t.Fatalf("k=%d: bounds [%d, %d], want [0, %d]", k, bounds[0], bounds[k], maxID+1)
		}
		var all []EncTriple
		total := 0
		for i, sub := range shards {
			if bounds[i] >= bounds[i+1] {
				t.Fatalf("k=%d shard %d: empty range [%d, %d)", k, i, bounds[i], bounds[i+1])
			}
			if sub.Dict() != st.Dict() {
				t.Fatalf("k=%d shard %d: dictionary not shared", k, i)
			}
			if got, want := sub.NumTriples(), st.SubjectSpan(bounds[i], bounds[i+1]); got != want {
				t.Fatalf("k=%d shard %d: %d triples, SubjectSpan says %d", k, i, got, want)
			}
			for _, tr := range sub.Triples() {
				if tr.S < bounds[i] || tr.S >= bounds[i+1] {
					t.Fatalf("k=%d shard %d: subject %d outside [%d, %d)", k, i, tr.S, bounds[i], bounds[i+1])
				}
			}
			all = append(all, sub.Triples()...)
			total += sub.NumTriples()
		}
		if total != st.NumTriples() {
			t.Fatalf("k=%d: shards hold %d triples, store has %d", k, total, st.NumTriples())
		}
		if !reflect.DeepEqual(all, st.Triples()) {
			t.Fatalf("k=%d: concatenated shard triples differ from the store's SPO order", k)
		}
	}
}

func TestShardBySubjectErrors(t *testing.T) {
	st := shardTestStore(t, 50)
	if _, _, err := st.ShardBySubject(0); err == nil {
		t.Error("ShardBySubject(0) should fail")
	}
	if _, _, err := st.ShardBySubject(st.Dict().Len() + 2); err == nil {
		t.Error("ShardBySubject(> maxID+1) should fail")
	}
}

// newSharded shards st and wraps the pieces in a ShardedStore.
func newSharded(t testing.TB, st *Store, k int) *ShardedStore {
	t.Helper()
	shards, bounds, err := st.ShardBySubject(k)
	if err != nil {
		t.Fatalf("ShardBySubject(%d): %v", k, err)
	}
	sh, err := NewShardedStore(shards, bounds, st.Stats())
	if err != nil {
		t.Fatalf("NewShardedStore: %v", err)
	}
	return sh
}

func eqIDs(a, b []ID) bool {
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

func eqTriples(a, b []EncTriple) bool {
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

// TestShardedStoreEquivalence: every Reader method of a ShardedStore
// must return exactly what the single store it was split from returns —
// same values, same order — for every ID in the dictionary (plus a few
// out-of-range ones). This is the store-level half of the byte-identity
// guarantee; the exec-level half lives in internal/exec.
func TestShardedStoreEquivalence(t *testing.T) {
	st := shardTestStore(t, 500)
	for _, k := range []int{1, 2, 3, 5} {
		sh := newSharded(t, st, k)
		if sh.NumShards() != k {
			t.Fatalf("NumShards = %d, want %d", sh.NumShards(), k)
		}
		if sh.NumTriples() != st.NumTriples() {
			t.Fatalf("k=%d: NumTriples = %d, want %d", k, sh.NumTriples(), st.NumTriples())
		}
		if sh.Stats() != st.Stats() {
			t.Fatalf("k=%d: sharded store must carry the global statistics", k)
		}
		if !eqTriples(sh.Triples(), st.Triples()) {
			t.Fatalf("k=%d: Triples() differs", k)
		}
		n := ID(st.Dict().Len())
		ids := make([]ID, 0, n+2)
		for id := ID(1); id <= n; id++ {
			ids = append(ids, id)
		}
		ids = append(ids, 0, n+7)
		for _, s := range ids {
			if got, want := sh.CountS(s), st.CountS(s); got != want {
				t.Fatalf("k=%d: CountS(%d) = %d, want %d", k, s, got, want)
			}
			if got, want := sh.CountP(s), st.CountP(s); got != want {
				t.Fatalf("k=%d: CountP(%d) = %d, want %d", k, s, got, want)
			}
			if got, want := sh.CountO(s), st.CountO(s); got != want {
				t.Fatalf("k=%d: CountO(%d) = %d, want %d", k, s, got, want)
			}
			if !eqTriples(sh.SubjectTriples(s), st.SubjectTriples(s)) {
				t.Fatalf("k=%d: SubjectTriples(%d) differs", k, s)
			}
			if !eqTriples(sh.PredicateTriples(s), st.PredicateTriples(s)) {
				t.Fatalf("k=%d: PredicateTriples(%d) differs", k, s)
			}
			if !eqTriples(sh.ObjectTriples(s), st.ObjectTriples(s)) {
				t.Fatalf("k=%d: ObjectTriples(%d) differs", k, s)
			}
			if !eqIDs(sh.SubjectsOfPredicate(s), st.SubjectsOfPredicate(s)) {
				t.Fatalf("k=%d: SubjectsOfPredicate(%d) differs", k, s)
			}
			if !eqIDs(sh.ObjectsOfPredicate(s), st.ObjectsOfPredicate(s)) {
				t.Fatalf("k=%d: ObjectsOfPredicate(%d) differs", k, s)
			}
		}
		// Pairwise accessors, probed on every stored triple plus misses.
		for _, tr := range st.Triples() {
			if !sh.Contains(tr.S, tr.P, tr.O) {
				t.Fatalf("k=%d: Contains(%v) = false", k, tr)
			}
			if sh.Contains(tr.S, tr.P, 0) {
				t.Fatalf("k=%d: Contains(%d,%d,0) = true", k, tr.S, tr.P)
			}
			if !eqIDs(sh.ObjectsSP(tr.S, tr.P), st.ObjectsSP(tr.S, tr.P)) {
				t.Fatalf("k=%d: ObjectsSP(%d,%d) differs", k, tr.S, tr.P)
			}
			if !eqIDs(sh.SubjectsPO(tr.P, tr.O), st.SubjectsPO(tr.P, tr.O)) {
				t.Fatalf("k=%d: SubjectsPO(%d,%d) differs", k, tr.P, tr.O)
			}
			if !eqIDs(sh.PredsSO(tr.S, tr.O), st.PredsSO(tr.S, tr.O)) {
				t.Fatalf("k=%d: PredsSO(%d,%d) differs", k, tr.S, tr.O)
			}
			if got, want := sh.CountSP(tr.S, tr.P), st.CountSP(tr.S, tr.P); got != want {
				t.Fatalf("k=%d: CountSP(%d,%d) = %d, want %d", k, tr.S, tr.P, got, want)
			}
			if got, want := sh.CountPO(tr.P, tr.O), st.CountPO(tr.P, tr.O); got != want {
				t.Fatalf("k=%d: CountPO(%d,%d) = %d, want %d", k, tr.P, tr.O, got, want)
			}
			if got, want := sh.CountSO(tr.S, tr.O), st.CountSO(tr.S, tr.O); got != want {
				t.Fatalf("k=%d: CountSO(%d,%d) = %d, want %d", k, tr.S, tr.O, got, want)
			}
		}
	}
}

func TestNewShardedStoreValidation(t *testing.T) {
	st := shardTestStore(t, 100)
	shards, bounds, err := st.ShardBySubject(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    func() ([]*Store, []ID, *Stats)
	}{
		{"no shards", func() ([]*Store, []ID, *Stats) { return nil, nil, st.Stats() }},
		{"nil stats", func() ([]*Store, []ID, *Stats) { return shards, bounds, nil }},
		{"bounds length", func() ([]*Store, []ID, *Stats) { return shards, bounds[:2], st.Stats() }},
		{"nonzero start", func() ([]*Store, []ID, *Stats) {
			b := append([]ID(nil), bounds...)
			b[0] = 1
			return shards, b, st.Stats()
		}},
		{"wrong end", func() ([]*Store, []ID, *Stats) {
			b := append([]ID(nil), bounds...)
			b[len(b)-1]++
			return shards, b, st.Stats()
		}},
		{"non-increasing", func() ([]*Store, []ID, *Stats) {
			b := append([]ID(nil), bounds...)
			b[1] = b[0]
			return shards, b, st.Stats()
		}},
		{"range mismatch", func() ([]*Store, []ID, *Stats) {
			b := append([]ID(nil), bounds...)
			if b[1] > 1 {
				b[1]--
			} else {
				b[1]++
			}
			return shards, b, st.Stats()
		}},
		{"nil shard", func() ([]*Store, []ID, *Stats) {
			return []*Store{shards[0], nil}, bounds, st.Stats()
		}},
	}
	for _, c := range cases {
		s, b, stats := c.f()
		if _, err := NewShardedStore(s, b, stats); err == nil {
			t.Errorf("%s: NewShardedStore succeeded, want error", c.name)
		}
	}
}
