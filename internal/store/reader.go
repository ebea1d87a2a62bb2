package store

// Reader is the read-side contract shared by a single *Store and a
// range-partitioned *ShardedStore. Every accessor keeps the single-store
// ordering contract (ascending-ID views, permutation-sorted triple
// slices) and every count is global, so code written against Reader —
// the engines, the cost models, the evaluator — produces byte-identical
// results whichever implementation serves it.
type Reader interface {
	// Dict exposes the term dictionary. All shards of a sharded store
	// share one dense ID space, so one dictionary serves every shard.
	Dict() *Dict
	// Stats returns the Freeze-time statistics of the full triple set
	// (nil until frozen). A sharded store reports the statistics of the
	// original unpartitioned store, not a per-shard aggregate, so cost
	// models see exactly the numbers a single store would give them.
	Stats() *Stats
	// Frozen reports whether the triple set is read-only.
	Frozen() bool
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

// Viewer is implemented by mutable Readers (the live-update overlay)
// that can pin an immutable point-in-time view of themselves. The
// execution funnel resolves a Viewer to one View per query, so a
// running query sees exactly one epoch of the data — concurrent writes
// and compaction swaps land in later views and are invisible to it.
// Immutable Readers simply don't implement Viewer and are used as-is.
type Viewer interface {
	Reader
	// View returns an immutable snapshot of the current state. The
	// returned Reader is safe for concurrent use and never changes.
	View() Reader
}

// ShardedReader is a Reader whose triple set is range-partitioned by
// subject ID across standalone shard stores. The engines' scatter scan
// uses it to fan a fresh whole-pattern scan out per shard and recombine
// in global order; everything else stays on the plain Reader surface.
type ShardedReader interface {
	Reader
	// NumShards returns the number of shards (≥ 1).
	NumShards() int
	// Shard returns shard i. Shards are ordered by ascending subject
	// range, so concatenating per-shard results in index order yields
	// global subject order.
	Shard(i int) *Store
	// Scatter runs f(0) … f(k-1), using the store's bounded worker pool
	// for parallelism; it returns only once every call has finished.
	// Calls may run concurrently — f must not share mutable state across
	// indexes.
	Scatter(f func(i int))
}

var (
	_ Reader        = (*Store)(nil)
	_ ShardedReader = (*ShardedStore)(nil)
)
