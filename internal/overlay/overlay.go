// Package overlay adds live updates to the otherwise-immutable columnar
// store: an LSM-flavored two-level structure in which a small mutable
// memtable (an append log of insert and tombstone operations) sits on
// top of an immutable frozen base store, and the two sorted sides are
// merged at read time so every store.Reader accessor of a View sees one
// consistent triple set.
//
// The design leans on three properties the repo already has:
//
//   - both sides are ID-sorted, so the read path is a streaming merge of
//     zero-copy base runs with small sorted delta runs — the same
//     combinator shape as the PR 5 merge joins;
//   - the dictionary is append-only and dense, so one *store.Dict is
//     shared by the memtable and every generation of the base;
//   - the PR 3 atomic snapshot writer (temp+fsync+rename) is the
//     compaction persistence primitive, so a crash mid-compaction
//     always leaves the previous image intact on disk.
//
// Concurrency model. Writes (Insert/Delete) append operations to the
// memtable under a mutex and bump an epoch counter; each write call is
// one atomic batch. The LiveStore is not a store.Reader: a reader asks
// it for the current View once per query and reads only that immutable
// view, which is (re)built lazily at the current epoch and then shared
// by all readers until the next write, so a running query never
// observes a partial batch — snapshot isolation by construction. A
// compaction is the materialisation of a View: the view's two deltas —
// the memtable already resolved against the base (tombstones annihilate
// their targets) and already sorted per permutation for readers — are
// merged into the base's permutations by store.MergeFold, one linear
// pass each (fold cost is O(base + delta), nothing is re-sorted); the
// new base is optionally persisted with the atomic snapshot writer and
// swapped in under the mutex — an RCU-style swap: in-flight queries
// finish on the old image, and the only reader-visible pause is the
// pointer swap itself.
package overlay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sparqluo/internal/rdf"
	"sparqluo/internal/snapshot"
	"sparqluo/internal/store"
	"sparqluo/internal/wal"
)

// op is one memtable entry: a dictionary-encoded triple plus a
// tombstone flag. The memtable is an append log of ops; later ops win
// over earlier ones for the same triple.
type op struct {
	t   store.EncTriple
	del bool
}

// Options configures a LiveStore.
type Options struct {
	// SnapshotPath, if non-empty, makes every compaction persist the
	// new base image there with the atomic snapshot writer *before*
	// swapping it in. A failed persist aborts the compaction: the ops
	// return to the memtable and the old base (and old on-disk image)
	// keep serving.
	SnapshotPath string
}

// LiveStore is a mutable triple set: an immutable frozen base plus a
// mutex-guarded memtable of pending inserts and tombstones. It is not a
// store.Reader itself — a reader pins one immutable View per query and
// reads only that. All methods are safe for concurrent use.
type LiveStore struct {
	dict *store.Dict
	opts Options

	// journal, when non-nil, is the write-ahead log: every batch is
	// appended (under mu, so the compactor's Cut linearizes against
	// writes) and synced before the write call returns. Set once during
	// startup via SetJournal.
	journal *wal.Log

	mu   sync.Mutex   // guards base/active and the compaction bookkeeping
	base *store.Store // frozen; replaced (never mutated) by compaction
	// active is the memtable: every op not yet folded into base, in
	// arrival order. Writers only append; a compaction claims a prefix
	// and drops it when it swaps in the folded base.
	active []op

	// seq is the epoch: bumped (under mu) by every write batch and
	// every compaction swap. Readers compare it lock-free against the
	// published view's epoch to decide whether a rebuild is needed.
	seq atomic.Uint64
	cur atomic.Pointer[View]

	compactMu  sync.Mutex // serializes compactions
	compacting atomic.Bool

	// compaction bookkeeping, guarded by mu
	compactions       int
	lastCompact       time.Time
	lastCompactTook   time.Duration
	lastCompactMerged int

	// writeSnapshot persists a compacted base; swapped by the
	// crash-recovery tests to inject write failures.
	writeSnapshot func(path string, st *store.Store) error
}

// New layers a live overlay over base. A nil base starts empty.
func New(base *store.Store, opts Options) *LiveStore {
	if base == nil {
		base, _ = store.FromTriples(store.NewDict(), nil) // an empty build cannot fail
	}
	ls := &LiveStore{
		dict:          base.Dict(),
		opts:          opts,
		base:          base,
		writeSnapshot: snapshot.WriteFile,
	}
	return ls
}

// SetJournal attaches the write-ahead log: from now on every
// Insert/Delete batch is appended to it before it lands in the memtable
// and fsynced before the write call returns — a batch is never
// acknowledged undurable — and, with a SnapshotPath, the compactor
// brackets its fold with Cut/Retire so the log only ever holds the
// batches the newest persisted base image does not. Call it during
// startup — after replaying any surviving records through
// Insert/Delete, and before the store is shared with other goroutines;
// the field itself is not synchronized.
func (ls *LiveStore) SetJournal(j *wal.Log) { ls.journal = j }

// Insert adds the given triples as one atomic batch: a concurrent query
// sees either none or all of them. Duplicates of existing triples are
// absorbed (RDF set semantics); an insert also cancels any pending
// tombstone for the same triple. A batch holding a triple that
// rdf.Triple.Valid refuses is refused whole, before anything is
// journaled or applied. With a journal attached, a nil return means an
// fsync covers the batch; on error the batch was not applied
// (journal append failed) or was applied but not confirmed durable
// (sync failed — a retry is safe either way, set semantics make
// replays idempotent). Either failure poisons the log
// (wal.ErrFailed): later writes are refused until it is reopened, while
// reads keep being served.
func (ls *LiveStore) Insert(ts ...rdf.Triple) error {
	if err := rdf.CheckAll(ts); err != nil || len(ts) == 0 {
		return err
	}
	ops := make([]op, len(ts))
	for i, t := range ts {
		ops[i] = op{t: ls.dict.EncodeTriple(t)}
	}
	return ls.apply(wal.Insert, ts, ops)
}

// Delete removes the given triples as one atomic batch, by appending
// tombstones to the memtable. Deleting an absent triple is a no-op; a
// triple with any term the dictionary has never seen cannot exist and
// is skipped without growing the dictionary. The full requested batch
// is journaled (not just the surviving tombstones): recovery replays it
// against a base that may differ from today's memtable, where a
// tombstone skipped now could be the one that matters. So a batch
// holding a triple rdf.Triple.Valid refuses is refused whole, as Insert
// refuses it: its journal record could not be replayed.
func (ls *LiveStore) Delete(ts ...rdf.Triple) error {
	if err := rdf.CheckAll(ts); err != nil || len(ts) == 0 {
		return err
	}
	ops := make([]op, 0, len(ts))
	for _, t := range ts {
		s, ok := ls.dict.Lookup(t.S)
		if !ok {
			continue
		}
		p, ok := ls.dict.Lookup(t.P)
		if !ok {
			continue
		}
		o, ok := ls.dict.Lookup(t.O)
		if !ok {
			continue
		}
		ops = append(ops, op{t: store.EncTriple{S: s, P: p, O: o}, del: true})
	}
	if len(ops) == 0 && ls.journal == nil {
		return nil
	}
	return ls.apply(wal.Delete, ts, ops)
}

// apply journals (if a journal is attached) and applies one write
// batch. The journal append happens inside the write mutex — the same
// critical section that admits the ops into the memtable — so the
// compactor's Cut, which runs under the same mutex, cleanly partitions
// journal records into "claimed by this fold" and "after it". The sync
// (fsync wait) runs outside the mutex: a slow disk stalls only the
// writers waiting on durability, never readers.
func (ls *LiveStore) apply(kind wal.Kind, ts []rdf.Triple, ops []op) error {
	ls.mu.Lock()
	var seq uint64
	if ls.journal != nil {
		var err error
		seq, err = ls.journal.Append(kind, ts)
		if err != nil {
			ls.mu.Unlock()
			return fmt.Errorf("overlay: journal append: %w", err)
		}
	}
	if len(ops) > 0 {
		ls.active = append(ls.active, ops...)
		ls.seq.Add(1)
	}
	ls.mu.Unlock()
	if ls.journal != nil {
		if err := ls.journal.Sync(seq); err != nil {
			return fmt.Errorf("overlay: journal sync: %w", err)
		}
	}
	return nil
}

// Epoch returns the current write epoch. It advances on every write
// batch and every compaction swap; a View carries the epoch it was
// built at.
func (ls *LiveStore) Epoch() uint64 { return ls.seq.Load() }

// Base returns the current frozen base store (e.g. to snapshot a
// quiesced store after Flush). The caller must treat it as read-only;
// a concurrent compaction may swap in a successor at any time.
func (ls *LiveStore) Base() *store.Store {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.base
}

// View returns an immutable snapshot of the current state, which is
// what every reader reads. Views are cached: all readers between two writes
// share one View, and the fast path is two atomic loads.
func (ls *LiveStore) View() *View {
	// Load the epoch before the view pointer: if they match, the view
	// is current; if a write lands in between, the mismatch sends us
	// through the locked rebuild.
	if v := ls.cur.Load(); v != nil && v.epoch == ls.seq.Load() {
		return v
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.viewLocked()
}

func (ls *LiveStore) viewLocked() *View {
	epoch := ls.seq.Load()
	if v := ls.cur.Load(); v != nil && v.epoch == epoch {
		return v
	}
	v := newView(ls.base, ls.active, epoch)
	ls.cur.Store(v)
	return v
}

// pendingOps reports the number of raw memtable operations (inserts +
// tombstones, including ones a compaction has claimed but not yet
// folded in).
func (ls *LiveStore) pendingOps() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.active)
}

// LiveStats is a point-in-time picture of the overlay, reported by
// /stats and /healthz.
type LiveStats struct {
	Epoch                uint64        // current write epoch
	BaseTriples          int           // triples in the frozen base
	MemtableOps          int           // raw pending memtable operations
	MemtableAdds         int           // net inserts visible on top of the base
	Tombstones           int           // net deletes pending against the base
	Compactions          int           // completed compactions
	Compacting           bool          // a compaction is in progress
	LastCompaction       time.Time     // completion time of the last compaction
	LastCompactionTook   time.Duration // duration of the last compaction
	LastCompactionMerged int           // triples in the base it produced

	// SinceLastCompaction is the age of the last successful compaction
	// at the moment LiveStats was taken (zero if none has completed) —
	// the number an operator alerts on to catch a stuck compactor
	// before the memtable (and, with a WAL, the segment set) grows
	// without bound.
	SinceLastCompaction time.Duration

	// WAL reports the attached write-ahead journal, nil when the store
	// runs without one (writes then die with the process between
	// compactions).
	WAL *wal.Stats
}

// LiveStats returns the current overlay statistics. It resolves the
// memtable (building the current view if stale), so the add/tombstone
// counts are the net effect a query would see.
func (ls *LiveStore) LiveStats() LiveStats {
	v := ls.View()
	ls.mu.Lock()
	st := LiveStats{
		Epoch:                v.epoch,
		BaseTriples:          v.base.NumTriples(),
		MemtableOps:          len(ls.active),
		MemtableAdds:         v.add.Len(),
		Tombstones:           v.del.Len(),
		Compactions:          ls.compactions,
		Compacting:           ls.compacting.Load(),
		LastCompaction:       ls.lastCompact,
		LastCompactionTook:   ls.lastCompactTook,
		LastCompactionMerged: ls.lastCompactMerged,
	}
	if !ls.lastCompact.IsZero() {
		st.SinceLastCompaction = time.Since(ls.lastCompact)
	}
	ls.mu.Unlock()
	if ls.journal != nil {
		js := ls.journal.Stats()
		st.WAL = &js
	}
	return st
}

// resolve replays the op log against base and returns the net effect:
// adds (triples to insert, none of which are in base) and dels
// (tombstones, all of which are in base). Later ops win over earlier
// ones for the same triple; no-ops (inserting a present triple,
// deleting an absent one) vanish. The result upholds the merge
// invariants every View accessor relies on:
//
//	adds ∩ base = ∅,  dels ⊆ base,  adds ∩ dels = ∅
func resolve(base *store.Store, ops []op) (adds, dels []store.EncTriple) {
	if len(ops) == 0 {
		return nil, nil
	}
	last := make(map[store.EncTriple]bool, len(ops))
	for _, o := range ops {
		last[o.t] = o.del
	}
	for t, del := range last {
		inBase := base.Contains(t.S, t.P, t.O)
		if del {
			if inBase {
				dels = append(dels, t)
			}
		} else if !inBase {
			adds = append(adds, t)
		}
	}
	return adds, dels
}

// Dict returns the dictionary shared by the memtable and every
// generation of the base.
func (ls *LiveStore) Dict() *store.Dict { return ls.dict }

var _ store.Reader = (*View)(nil)
