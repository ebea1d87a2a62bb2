package overlay

import (
	"slices"
	"sync"

	"sparqluo/internal/store"
)

// View is one immutable epoch of a LiveStore: a frozen base plus the
// resolved net delta (adds and tombstones) the memtable held when the
// view was built. It implements store.Reader by merging the sorted
// base runs with the sorted delta runs per accessor, preserving every
// ordering contract of the frozen store — which is what makes query
// results over a live store byte-identical to results over an
// equivalently frozen one. A View never changes once published; writes
// and compaction swaps only ever produce later views.
type View struct {
	epoch uint64
	base  *store.Store
	add   *delta // net inserts;   add ∩ base = ∅
	del   *delta // net tombstones; del ⊆ base, add ∩ del = ∅

	// all caches the fully merged canonical triple set on first use
	// (full-scan patterns); views between write batches share it.
	allOnce sync.Once
	all     []store.EncTriple
}

// newView resolves ops against base and indexes the net delta.
func newView(base *store.Store, ops []op, epoch uint64) *View {
	adds, dels := resolve(base, ops)
	return &View{
		epoch: epoch,
		base:  base,
		add:   newDelta(adds),
		del:   newDelta(dels),
	}
}

// Epoch returns the write epoch this view was built at.
func (v *View) Epoch() uint64 { return v.epoch }

// clean reports whether the view is the base alone (empty delta), which
// unlocks the zero-copy fast paths.
func (v *View) clean() bool { return v.add.Len() == 0 && v.del.Len() == 0 }

func (v *View) Dict() *store.Dict { return v.base.Dict() }

// Stats returns the base's statistics. The pending delta is
// deliberately not folded in: statistics feed cardinality *estimation*
// only, a memtable is small relative to the base, and the O(dictionary)
// statistics pass is far too expensive per write batch. Exact counts
// (the Count* accessors) do include the delta.
func (v *View) Stats() *store.Stats { return v.base.Stats() }

// NumTriples is exact: base plus net inserts minus tombstones.
func (v *View) NumTriples() int {
	return v.base.NumTriples() + v.add.Len() - v.del.Len()
}

// MemStats reports the base footprint with the delta indexes accounted
// under the log fields (the memtable is the ingestion log's successor).
func (v *View) MemStats() store.MemStats {
	m := v.base.MemStats()
	m.LogTriples += v.add.Len() + v.del.Len()
	m.LogBytes += v.add.bytes() + v.del.bytes()
	m.TotalBytes += v.add.bytes() + v.del.bytes()
	return m
}

func (v *View) Contains(s, p, o store.ID) bool {
	if v.add.contains(s, p, o) {
		return true
	}
	return v.base.Contains(s, p, o) && !v.del.contains(s, p, o)
}

func (v *View) ObjectsSP(s, p store.ID) []store.ID {
	return mergeIDs(v.base.ObjectsSP(s, p), v.del.objectsSP(s, p), v.add.objectsSP(s, p))
}

func (v *View) SubjectsPO(p, o store.ID) []store.ID {
	return mergeIDs(v.base.SubjectsPO(p, o), v.del.subjectsPO(p, o), v.add.subjectsPO(p, o))
}

func (v *View) PredsSO(s, o store.ID) []store.ID {
	return mergeIDs(v.base.PredsSO(s, o), v.del.predsSO(s, o), v.add.predsSO(s, o))
}

// The triple-run accessors merge through store.MergeRun, the same pass
// the compaction fold runs over whole permutations; a view's delta is
// resolved by construction, so its verdict is not consulted here.

func (v *View) SubjectTriples(s store.ID) []store.EncTriple {
	out, _ := store.MergeRun(v.base.SubjectTriples(s),
		v.del.subjectTriples(s), v.add.subjectTriples(s), store.CompareSPO)
	return out
}

func (v *View) PredicateTriples(p store.ID) []store.EncTriple {
	out, _ := store.MergeRun(v.base.PredicateTriples(p),
		v.del.predicateTriples(p), v.add.predicateTriples(p), store.ComparePOS)
	return out
}

func (v *View) ObjectTriples(o store.ID) []store.EncTriple {
	out, _ := store.MergeRun(v.base.ObjectTriples(o),
		v.del.objectTriples(o), v.add.objectTriples(o), store.CompareOSP)
	return out
}

// SubjectsOfPredicate returns the distinct subjects of p ascending.
// With a clean run it is the base's zero-copy answer; otherwise it is
// recomputed from the merged POS run, exactly as the base store
// computes its own (copy, sort, compact).
func (v *View) SubjectsOfPredicate(p store.ID) []store.ID {
	if v.add.countP(p) == 0 && v.del.countP(p) == 0 {
		return v.base.SubjectsOfPredicate(p)
	}
	run := v.PredicateTriples(p)
	subs := make([]store.ID, len(run))
	for i, t := range run {
		subs[i] = t.S
	}
	slices.Sort(subs)
	return slices.Compact(subs)
}

// ObjectsOfPredicate returns the distinct objects of p ascending. The
// merged POS run has objects ascending with duplicate runs, so the
// dirty path is a single compacting pass.
func (v *View) ObjectsOfPredicate(p store.ID) []store.ID {
	if v.add.countP(p) == 0 && v.del.countP(p) == 0 {
		return v.base.ObjectsOfPredicate(p)
	}
	run := v.PredicateTriples(p)
	objs := make([]store.ID, 0, len(run))
	for i, t := range run {
		if i == 0 || t.O != run[i-1].O {
			objs = append(objs, t.O)
		}
	}
	return objs
}

func (v *View) Triples() []store.EncTriple {
	if v.clean() {
		return v.base.Triples()
	}
	v.allOnce.Do(func() {
		v.all, _ = store.MergeRun(v.base.Triples(), v.del.SPO, v.add.SPO, store.CompareSPO)
	})
	return v.all
}

// The counts are exact arithmetic over the resolve invariants: every
// tombstone hits the base, no insert duplicates it.

func (v *View) CountP(p store.ID) int {
	return v.base.CountP(p) + v.add.countP(p) - v.del.countP(p)
}

func (v *View) CountS(s store.ID) int {
	return v.base.CountS(s) + v.add.countS(s) - v.del.countS(s)
}

func (v *View) CountO(o store.ID) int {
	return v.base.CountO(o) + v.add.countO(o) - v.del.countO(o)
}

func (v *View) CountSP(s, p store.ID) int {
	return v.base.CountSP(s, p) + len(v.add.objectsSP(s, p)) - len(v.del.objectsSP(s, p))
}

func (v *View) CountPO(p, o store.ID) int {
	return v.base.CountPO(p, o) + len(v.add.subjectsPO(p, o)) - len(v.del.subjectsPO(p, o))
}

func (v *View) CountSO(s, o store.ID) int {
	return v.base.CountSO(s, o) + len(v.add.predsSO(s, o)) - len(v.del.predsSO(s, o))
}
