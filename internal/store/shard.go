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
// [lo, hi) — O(1) off the SPO row pointers. The shard-set loader uses
// it to verify that an image's triples are confined to its manifest
// range.
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
