package store

import (
	"fmt"
	"sort"
)

// ShardBySubject splits the store into k standalone shard stores on
// ascending subject-ID boundaries. Shard i holds exactly the triples
// whose subject lies in [bounds[i], bounds[i+1]); bounds[0] is 0 and
// bounds[k] is maxID+1, so the ranges tile the dense ID space with no
// gaps or overlap. Boundaries are chosen by binary search on the SPO row
// pointers so shards carry near-equal triple counts regardless of
// subject skew (a single subject's run is never split).
//
// Every shard shares the parent's dictionary — the full ID space, so a
// shard is a self-contained store that can be snapshotted and reopened
// on its own — and carries its own local statistics.
func (st *Store) ShardBySubject(k int) ([]*Store, []ID, error) {
	maxID := st.dict.Len()
	if k < 1 || k > maxID+1 {
		return nil, nil, fmt.Errorf("store: cannot split a %d-term store into %d shards", maxID, k)
	}
	total := len(st.spo.tri)
	bounds := make([]ID, k+1)
	bounds[k] = ID(maxID + 1)
	for j := 1; j < k; j++ {
		target := int32(int64(total) * int64(j) / int64(k))
		id := sort.Search(maxID+2, func(i int) bool { return st.spo.off[i] >= target })
		// Keep the cut sequence strictly increasing even on degenerate
		// distributions, leaving room for the cuts still to come.
		if lo := int(bounds[j-1]) + 1; id < lo {
			id = lo
		}
		if hi := maxID + 1 - (k - 1 - j); id > hi {
			id = hi
		}
		bounds[j] = ID(id)
	}
	shards := make([]*Store, k)
	for i := 0; i < k; i++ {
		a, b := st.spo.off[bounds[i]], st.spo.off[bounds[i+1]]
		sub, err := FromTriples(st.dict, append([]EncTriple(nil), st.spo.tri[a:b]...))
		if err != nil {
			return nil, nil, fmt.Errorf("store: building shard %d: %w", i, err)
		}
		shards[i] = sub
	}
	return shards, bounds, nil
}

// SubjectSpan returns the number of triples whose subject lies in
// [lo, hi) — O(1) off the SPO row pointers. The shard loaders use it to
// verify that an image's triples are confined to its manifest range.
func (st *Store) SubjectSpan(lo, hi ID) int {
	last := int32(len(st.spo.tri))
	at := func(id ID) int32 {
		if int(id) >= len(st.spo.off) {
			return last
		}
		return st.spo.off[id]
	}
	n := at(hi) - at(lo)
	if n < 0 {
		return 0
	}
	return int(n)
}

// ShardedStore presents k subject-range shard stores as one Reader. Point
// lookups with a bound subject route to exactly one shard (where local
// results equal global results); predicate/object counts sum across
// shards; enumeration accessors recombine per-shard views in the global
// permutation order — plain concatenation when the order leads with the
// subject, a k-way merge otherwise. Stats are the original store's
// global statistics (carried by the shard manifest), so plan selection
// and sampling behave exactly as on the unpartitioned store. Nothing
// above the Reader surface knows the store is sharded: the engines scan
// it as they scan a single store, and pull the same rows.
//
// A ShardedStore is immutable and safe for concurrent readers.
type ShardedStore struct {
	shards []*Store
	bounds []ID // len(shards)+1; shard i owns subjects [bounds[i], bounds[i+1])
	stats  *Stats
	total  int
}

// NewShardedStore assembles a sharded reader over shard stores and
// their subject-range bounds, validating that the ranges tile the ID
// space, every shard's triples are confined to its range, and all shards
// agree on the dictionary size. stats must be the global statistics of
// the full triple set.
func NewShardedStore(shards []*Store, bounds []ID, stats *Stats) (*ShardedStore, error) {
	k := len(shards)
	if k == 0 {
		return nil, fmt.Errorf("store: sharded store needs at least one shard")
	}
	if len(bounds) != k+1 {
		return nil, fmt.Errorf("store: %d shards need %d bounds, got %d", k, k+1, len(bounds))
	}
	if stats == nil {
		return nil, fmt.Errorf("store: sharded store requires global stats")
	}
	if bounds[0] != 0 {
		return nil, fmt.Errorf("store: shard ranges must start at ID 0, got %d", bounds[0])
	}
	maxID := shards[0].Dict().Len()
	if int(bounds[k]) != maxID+1 {
		return nil, fmt.Errorf("store: shard ranges end at %d, want maxID+1 = %d", bounds[k], maxID+1)
	}
	total := 0
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("store: shard %d is nil", i)
		}
		if sh.Dict().Len() != maxID {
			return nil, fmt.Errorf("store: shard %d has %d dictionary terms, want %d (shards must share one ID space)",
				i, sh.Dict().Len(), maxID)
		}
		if bounds[i] >= bounds[i+1] {
			return nil, fmt.Errorf("store: shard %d range [%d,%d) is empty or out of order", i, bounds[i], bounds[i+1])
		}
		if got, n := sh.SubjectSpan(bounds[i], bounds[i+1]), sh.NumTriples(); got != n {
			return nil, fmt.Errorf("store: shard %d holds %d of %d triples inside its range [%d,%d)",
				i, got, n, bounds[i], bounds[i+1])
		}
		total += sh.NumTriples()
	}
	return &ShardedStore{
		shards: shards,
		bounds: append([]ID(nil), bounds...),
		stats:  stats,
		total:  total,
	}, nil
}

// NumShards returns the shard count.
func (sh *ShardedStore) NumShards() int { return len(sh.shards) }

// ShardFor returns the shard owning subject s.
func (sh *ShardedStore) ShardFor(s ID) *Store {
	i := sort.Search(len(sh.shards), func(i int) bool { return sh.bounds[i+1] > s })
	if i == len(sh.shards) {
		// Out-of-range ID: any shard answers "not present"; use the last.
		i--
	}
	return sh.shards[i]
}

// Dict returns the shared dictionary (shard 0's instance; all shards
// carry identical term tables).
func (sh *ShardedStore) Dict() *Dict { return sh.shards[0].Dict() }

// Stats returns the global statistics of the full triple set.
func (sh *ShardedStore) Stats() *Stats { return sh.stats }

// NumTriples returns the global triple count (sum of shards).
func (sh *ShardedStore) NumTriples() int { return sh.total }

// Contains routes to the shard owning s.
func (sh *ShardedStore) Contains(s, p, o ID) bool { return sh.ShardFor(s).Contains(s, p, o) }

// ObjectsSP routes to the shard owning s (local view == global view).
func (sh *ShardedStore) ObjectsSP(s, p ID) []ID { return sh.ShardFor(s).ObjectsSP(s, p) }

// PredsSO routes to the shard owning s.
func (sh *ShardedStore) PredsSO(s, o ID) []ID { return sh.ShardFor(s).PredsSO(s, o) }

// SubjectTriples routes to the shard owning s.
func (sh *ShardedStore) SubjectTriples(s ID) []EncTriple { return sh.ShardFor(s).SubjectTriples(s) }

// CountS routes to the shard owning s.
func (sh *ShardedStore) CountS(s ID) int { return sh.ShardFor(s).CountS(s) }

// CountSP routes to the shard owning s.
func (sh *ShardedStore) CountSP(s, p ID) int { return sh.ShardFor(s).CountSP(s, p) }

// CountSO routes to the shard owning s.
func (sh *ShardedStore) CountSO(s, o ID) int { return sh.ShardFor(s).CountSO(s, o) }

// CountP sums the predicate count across shards.
func (sh *ShardedStore) CountP(p ID) int {
	n := 0
	for _, s := range sh.shards {
		n += s.CountP(p)
	}
	return n
}

// CountO sums the object count across shards.
func (sh *ShardedStore) CountO(o ID) int {
	n := 0
	for _, s := range sh.shards {
		n += s.CountO(o)
	}
	return n
}

// CountPO sums the (predicate, object) count across shards.
func (sh *ShardedStore) CountPO(p, o ID) int {
	n := 0
	for _, s := range sh.shards {
		n += s.CountPO(p, o)
	}
	return n
}

// concat recombines per-shard views that are already in global order
// under concatenation (the values are subject-correlated and the shard
// ranges ascend). A single non-empty view is returned zero-copy.
func concat[T any](shards []*Store, get func(*Store) []T) []T {
	var single []T
	n, nonEmpty := 0, 0
	for _, s := range shards {
		if v := get(s); len(v) > 0 {
			n += len(v)
			nonEmpty++
			single = v
		}
	}
	if nonEmpty <= 1 {
		return single
	}
	out := make([]T, 0, n)
	for _, s := range shards {
		out = append(out, get(s)...)
	}
	return out
}

// SubjectsPO returns the global ascending-subject view: per-shard views
// are ascending within disjoint ascending ranges, so concatenation is
// already sorted (it materializes when more than one shard matches).
func (sh *ShardedStore) SubjectsPO(p, o ID) []ID {
	return concat(sh.shards, func(s *Store) []ID { return s.SubjectsPO(p, o) })
}

// SubjectsOfPredicate concatenates the per-shard distinct-subject views
// (disjoint ascending ranges ⇒ globally sorted and distinct).
func (sh *ShardedStore) SubjectsOfPredicate(p ID) []ID {
	return concat(sh.shards, func(s *Store) []ID { return s.SubjectsOfPredicate(p) })
}

// ObjectTriples concatenates the per-shard (S,P)-sorted views — the
// leading sort component is the subject, so shard order is global order.
func (sh *ShardedStore) ObjectTriples(o ID) []EncTriple {
	return concat(sh.shards, func(s *Store) []EncTriple { return s.ObjectTriples(o) })
}

// Triples concatenates the canonical (S,P,O)-sorted shard views.
func (sh *ShardedStore) Triples() []EncTriple {
	return concat(sh.shards, func(s *Store) []EncTriple { return s.Triples() })
}

// PredicateTriples merges the per-shard (O,S)-sorted views into the
// global POS order. Subjects are disjoint across shards, so the merge
// has no ties and is deterministic.
func (sh *ShardedStore) PredicateTriples(p ID) []EncTriple {
	runs := make([][]EncTriple, 0, len(sh.shards))
	n := 0
	for _, s := range sh.shards {
		if v := s.PredicateTriples(p); len(v) > 0 {
			runs = append(runs, v)
			n += len(v)
		}
	}
	if len(runs) == 0 {
		return nil
	}
	if len(runs) == 1 {
		return runs[0]
	}
	out := make([]EncTriple, 0, n)
	for {
		best := -1
		for i, r := range runs {
			if len(r) == 0 {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, b := r[0], runs[best][0]
			if a.O < b.O || (a.O == b.O && a.S < b.S) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
}

// ObjectsOfPredicate merges the per-shard distinct-object views with
// cross-shard deduplication (an object can appear under many subjects).
func (sh *ShardedStore) ObjectsOfPredicate(p ID) []ID {
	runs := make([][]ID, 0, len(sh.shards))
	n := 0
	for _, s := range sh.shards {
		if v := s.ObjectsOfPredicate(p); len(v) > 0 {
			runs = append(runs, v)
			n += len(v)
		}
	}
	if len(runs) == 0 {
		return nil
	}
	if len(runs) == 1 {
		return runs[0]
	}
	out := make([]ID, 0, n)
	for {
		best := -1
		for i, r := range runs {
			if len(r) == 0 {
				continue
			}
			if best < 0 || r[0] < runs[best][0] {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		v := runs[best][0]
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
		runs[best] = runs[best][1:]
	}
}

// MemStats aggregates the shards' index footprints. The dictionary is
// logically shared (one ID space), so terms are reported once and
// DictBytes is the serving dictionary's string data; per-shard images
// each carry their own mapped copy on disk.
func (sh *ShardedStore) MemStats() MemStats {
	var m MemStats
	for _, s := range sh.shards {
		sm := s.MemStats()
		m.Triples += sm.Triples
		m.SPOBytes += sm.SPOBytes
		m.POSBytes += sm.POSBytes
		m.OSPBytes += sm.OSPBytes
	}
	m.DictTerms = sh.Dict().Len()
	m.DictBytes = sh.Dict().StringBytes()
	m.TotalBytes = m.SPOBytes + m.POSBytes + m.OSPBytes + m.DictBytes
	return m
}
