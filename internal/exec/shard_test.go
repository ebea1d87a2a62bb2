package exec

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"sparqluo/internal/algebra"
	"sparqluo/internal/store"
)

// shardStore range-partitions a frozen store into k shards and wraps
// them in a ShardedStore carrying the original's global statistics.
func shardStore(tb testing.TB, st *store.Store, k int) *store.ShardedStore {
	tb.Helper()
	shards, bounds, err := st.ShardBySubject(k)
	if err != nil {
		tb.Fatalf("ShardBySubject(%d): %v", k, err)
	}
	sh, err := store.NewShardedStore(shards, bounds, st.Stats())
	if err != nil {
		tb.Fatalf("NewShardedStore: %v", err)
	}
	return sh
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
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestQuickShardedMatchPatternIdentical is the exec-level half of the
// byte-identity guarantee: MatchPattern over a sharded store must emit
// exactly the same rows in exactly the same order as over the single
// store it was split from, for random patterns of every shape, with and
// without candidate sets. Order identity — not just set equality — is
// what lets downstream merge joins and LIMIT prefixes stay byte-stable.
func TestQuickShardedMatchPatternIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 120)
		const width = 4
		pat := randomPattern(rng, st)
		var cand Candidates
		if rng.Intn(2) == 0 && len(pat.Vars()) > 0 {
			vs := pat.Vars()
			v := vs[rng.Intn(len(vs))]
			set := map[store.ID]struct{}{}
			for i := 0; i < 1+rng.Intn(6); i++ {
				set[store.ID(1+rng.Intn(st.Dict().Len()))] = struct{}{}
			}
			cand = Candidates{v: set}
		}
		want := collectMatches(st, pat, make(algebra.Row, width), cand)
		for _, k := range []int{1, 2, 3} {
			if k > st.Dict().Len()+1 {
				continue
			}
			got := collectMatches(shardStore(t, st, k), pat, make(algebra.Row, width), cand)
			if !rowsEqual(want, got) {
				t.Logf("seed %d k=%d pat %+v: %d sharded rows vs %d single", seed, k, pat, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestShardedRepeatedVarPattern pins the subtle ?x p ?x case: its scan
// order is (O, S) but equal-subject-object rows ascend with the subject,
// so the sharded path may concatenate in shard order — the result must
// still match the single store exactly.
func TestShardedRepeatedVarPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := randomStore(rng, 150)
	tris := st.Triples()
	p := tris[rng.Intn(len(tris))].P
	pat := Pattern{S: Var(0), P: Const(p), O: Var(0)}
	want := collectMatches(st, pat, make(algebra.Row, 2), nil)
	for _, k := range []int{2, 4} {
		got := collectMatches(shardStore(t, st, k), pat, make(algebra.Row, 2), nil)
		if !rowsEqual(want, got) {
			t.Fatalf("k=%d: repeated-var rows differ (%d vs %d)", k, len(got), len(want))
		}
	}
}

// TestQuickShardedBGPIdentical runs whole BGPs through both engines over
// sharded and single stores and demands identical bags — rows, order and
// claimed output order — including under LIMIT push-down, where the
// capped bag must be a byte-identical prefix.
func TestQuickShardedBGPIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStore(rng, 100)
		const width = 4
		var bgp BGP
		for i := 0; i < 1+rng.Intn(3); i++ {
			bgp = append(bgp, randomPattern(rng, st))
		}
		sh := shardStore(t, st, 2+rng.Intn(3))
		for _, engine := range []Engine{WCOEngine{}, BinaryJoinEngine{}} {
			for _, max := range []int{-1, 0, 3} {
				var pw, ps int
				want := engine.EvalBGPTop(context.Background(), st, bgp, width, nil, max, &pw)
				got := engine.EvalBGPTop(context.Background(), sh, bgp, width, nil, max, &ps)
				if want.Len() != got.Len() {
					t.Logf("seed %d %s max=%d: %d sharded rows vs %d single", seed, engine.Name(), max, got.Len(), want.Len())
					return false
				}
				for i := 0; i < want.Len(); i++ {
					wr, gr := want.Row(i), got.Row(i)
					for j := range wr {
						if wr[j] != gr[j] {
							t.Logf("seed %d %s max=%d: row %d differs: %v vs %v", seed, engine.Name(), max, i, gr, wr)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
