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
		// Folding the shards back together, as a shard set is opened,
		// rebuilds the unsplit store exactly: same permutations, same
		// row pointers, same statistics.
		refold, err := FromTriples(st.Dict(), all)
		if err != nil {
			t.Fatalf("k=%d: refold: %v", k, err)
		}
		if !reflect.DeepEqual(refold.Layout(), st.Layout()) || !reflect.DeepEqual(refold.Stats(), st.Stats()) {
			t.Fatalf("k=%d: refolded shards differ from the unsplit store", k)
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
