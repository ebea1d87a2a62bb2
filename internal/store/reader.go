package store

// Reader is the read-side contract of every store kind: a single *Store,
// a range-partitioned *ShardedStore, and one immutable epoch of a live
// overlay. Every accessor keeps the single-store ordering contract
// (ascending-ID views, permutation-sorted triple slices) and every count
// is global, so code written against Reader — the engines, the cost
// models, the evaluator — produces byte-identical results whichever
// implementation serves it, and never needs to know which one it is.
type Reader interface {
	// Dict exposes the term dictionary. All shards of a sharded store
	// share one dense ID space, so one dictionary serves every shard.
	Dict() *Dict
	// Stats returns the statistics of the full triple set, computed
	// when the store was built. A sharded store reports the statistics
	// of the original unpartitioned store, not a per-shard aggregate, so
	// cost models see exactly the numbers a single store would give them.
	Stats() *Stats
	// NumTriples is the global distinct-triple count.
	NumTriples() int
	// MemStats reports the (aggregate) memory footprint.
	MemStats() MemStats

	Contains(s, p, o ID) bool
	ObjectsSP(s, p ID) []ID
	SubjectsPO(p, o ID) []ID
	PredsSO(s, o ID) []ID
	SubjectTriples(s ID) []EncTriple
	PredicateTriples(p ID) []EncTriple
	ObjectTriples(o ID) []EncTriple
	SubjectsOfPredicate(p ID) []ID
	ObjectsOfPredicate(p ID) []ID
	Triples() []EncTriple

	CountP(p ID) int
	CountS(s ID) int
	CountO(o ID) int
	CountSP(s, p ID) int
	CountPO(p, o ID) int
	CountSO(s, o ID) int
}

var (
	_ Reader = (*Store)(nil)
	_ Reader = (*ShardedStore)(nil)
)
