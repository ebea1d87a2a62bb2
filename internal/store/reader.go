package store

// Reader is the read-side contract of both store kinds: a built *Store
// (frozen in memory, mapped from an image, or folded from a shard set)
// and one immutable View of a live overlay. Every accessor keeps the
// single-store ordering contract (ascending-ID views,
// permutation-sorted triple slices), so code written against Reader —
// the engines, the cost models, the evaluator — produces byte-identical
// results whichever implementation serves it, and never needs to know
// which one it is.
type Reader interface {
	// Dict exposes the term dictionary.
	Dict() *Dict
	// Stats returns the statistics of the full triple set, computed
	// when the store was built. A live View reports its base's.
	Stats() *Stats
	// NumTriples is the distinct-triple count.
	NumTriples() int
	// MemStats reports the memory footprint.
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

var _ Reader = (*Store)(nil)
