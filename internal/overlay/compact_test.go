package overlay

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sparqluo/internal/rdf"
	"sparqluo/internal/snapshot"
	"sparqluo/internal/store"
)

// openImage opens a snapshot image and returns its store, failing the
// test on error. The mapping is closed via t.Cleanup.
func openImage(t *testing.T, path string) *store.Store {
	t.Helper()
	st, m, err := snapshot.Open(path)
	if err != nil {
		t.Fatalf("snapshot.Open(%s): %v", path, err)
	}
	t.Cleanup(func() { m.Close() })
	return st
}

func TestCompactionPersistsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.img")
	ls := New(baseStore([]rdf.Triple{tri("s", "p", "o")}), Options{SnapshotPath: path})
	ls.Insert(tri("s2", "p", "o"), tri("s3", "p", "o"))
	ls.Delete(tri("s", "p", "o"))
	cs, err := ls.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Persisted || cs.Merged != 2 || cs.Adds != 2 || cs.Dels != 1 {
		t.Errorf("compaction stats = %+v, want persisted, merged=2, adds=2, dels=1", cs)
	}
	st := openImage(t, path)
	if st.NumTriples() != 2 {
		t.Errorf("persisted image holds %d triples, want 2", st.NumTriples())
	}
	d := st.Dict()
	s2, _ := d.Lookup(iri("s2"))
	p, _ := d.Lookup(iri("p"))
	o, _ := d.Lookup(iri("o"))
	if !st.Contains(s2, p, o) {
		t.Error("persisted image missing inserted triple")
	}
	s, _ := d.Lookup(iri("s"))
	if st.Contains(s, p, o) {
		t.Error("persisted image contains tombstoned triple")
	}
}

// TestCompactionWriteFailureServesOldImage is the crash-recovery
// satellite: a compaction whose persist step dies mid-write (injected
// failure after a partial temp file is on disk, simulating a crash
// between temp-write and rename) must (a) keep the previous on-disk
// image openable and consistent, (b) keep the live store serving every
// write from the retained memtable, and (c) leave the store able to
// compact successfully later once the fault clears.
func TestCompactionWriteFailureServesOldImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.img")
	ls := New(baseStore([]rdf.Triple{tri("s", "p", "o")}), Options{SnapshotPath: path})

	// First compaction persists image v1 (2 triples).
	ls.Insert(tri("s2", "p", "o"))
	if _, err := ls.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := openImage(t, path); st.NumTriples() != 2 {
		t.Fatalf("image v1 holds %d triples, want 2", st.NumTriples())
	}

	// Inject a mid-write crash: the writer leaves a partial temp file
	// next to the target (exactly what a real crash between CreateTemp
	// and rename leaves behind) and reports failure.
	injected := errors.New("injected: disk full")
	realWrite := ls.writeSnapshot
	ls.writeSnapshot = func(p string, st *store.Store) error {
		garbage := filepath.Join(filepath.Dir(p), ".snapshot-partial123")
		if err := os.WriteFile(garbage, []byte("SNAPSHOT-truncated-garbag"), 0o644); err != nil {
			t.Fatal(err)
		}
		return injected
	}
	ls.Insert(tri("s3", "p", "o"))
	epochBefore := ls.Epoch()
	if _, err := ls.Compact(); !errors.Is(err, injected) {
		t.Fatalf("Compact with failing persist: err = %v, want injected failure", err)
	}

	// (a) The old image still opens and serves the v1 triple set — the
	// rename-last ordering means the failed attempt never touched it.
	st := openImage(t, path)
	if st.NumTriples() != 2 {
		t.Errorf("after failed compaction, on-disk image holds %d triples, want 2 (old image)", st.NumTriples())
	}

	// (b) The live store lost nothing: the claimed ops went back to the
	// memtable and the overlay serves all three triples.
	if ls.View().NumTriples() != 3 {
		t.Errorf("live store serves %d triples after failed compaction, want 3", ls.View().NumTriples())
	}
	if stats := ls.LiveStats(); stats.MemtableOps == 0 {
		t.Error("memtable empty after failed compaction — pending write was dropped")
	}
	if ls.Epoch() <= epochBefore {
		t.Error("failed compaction did not advance the epoch ledger")
	}

	// (c) Once the fault clears, a retry persists everything.
	ls.writeSnapshot = realWrite
	if _, err := ls.Compact(); err != nil {
		t.Fatal(err)
	}
	st2 := openImage(t, path)
	if st2.NumTriples() != 3 {
		t.Errorf("image v2 holds %d triples, want 3", st2.NumTriples())
	}
	if stats := ls.LiveStats(); stats.MemtableOps != 0 {
		t.Errorf("memtable not drained after successful retry: %+v", stats)
	}
}

func TestConcurrentWritesDuringCompaction(t *testing.T) {
	ls := New(nil, Options{})
	for i := 0; i < 500; i++ {
		ls.Insert(tri(fmt.Sprintf("s%d", i), "p", "o"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Writes land while the compaction below runs; none may stall
		// or be lost.
		for i := 500; i < 600; i++ {
			ls.Insert(tri(fmt.Sprintf("s%d", i), "p", "o"))
		}
	}()
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := ls.Base().NumTriples(); got != 600 {
		t.Errorf("base after compactions = %d triples, want 600", got)
	}
}

// TestResolve pins where the general-input cases of a write stream are
// decided: resolve reduces any op log to the delta MergeRun and
// MergeFold merge under (adds ∩ base = ∅, dels ⊆ base, adds ∩ dels = ∅,
// no duplicates), so neither the views nor the fold handle them again.
func TestResolve(t *testing.T) {
	base := baseStore([]rdf.Triple{tri("s", "p", "o")}) // IDs: s=1 p=2 o=3
	d := base.Dict()
	x := d.Encode(iri("x"))
	inBase := store.EncTriple{S: 1, P: 2, O: 3}
	fresh := store.EncTriple{S: x, P: 2, O: 3}
	for _, c := range []struct {
		name       string
		ops        []op
		adds, dels []store.EncTriple
	}{
		{"duplicate adds collapse", []op{{t: fresh}, {t: fresh}}, []store.EncTriple{fresh}, nil},
		{"add already in base is absorbed", []op{{t: inBase}}, nil, nil},
		{"tombstone of an absent triple is a no-op", []op{{t: fresh, del: true}}, nil, nil},
		{"add after tombstone wins, and is in base", []op{{t: inBase, del: true}, {t: inBase}}, nil, nil},
		{"add after tombstone wins, absent from base", []op{{t: fresh, del: true}, {t: fresh}}, []store.EncTriple{fresh}, nil},
		{"tombstone after add wins", []op{{t: fresh}, {t: fresh, del: true}, {t: inBase}, {t: inBase, del: true}}, nil, []store.EncTriple{inBase}},
		{"duplicate tombstones collapse", []op{{t: inBase, del: true}, {t: inBase, del: true}}, nil, []store.EncTriple{inBase}},
	} {
		adds, dels := resolve(base, c.ops)
		if !slices.Equal(adds, c.adds) || !slices.Equal(dels, c.dels) {
			t.Errorf("%s: resolve = adds %v, dels %v; want adds %v, dels %v", c.name, adds, dels, c.adds, c.dels)
		}
	}
}

// TestCompactionUnresolvedDeltaRollsBack: the fold checks the
// invariants it merges under, and Compact treats the typed error like
// any other fold failure. A view whose delta is not resolved against
// the base (a tombstone the base does not hold; an add it already
// holds) is published at the current epoch, so the compaction picks it
// up: the fold refuses it, the claimed ops return to the memtable, and
// the old base and the old on-disk image keep serving until a later
// compaction — on a rebuilt view — folds them.
func TestCompactionUnresolvedDeltaRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.img")
	ls := New(baseStore([]rdf.Triple{tri("s", "p", "o")}), Options{SnapshotPath: path})
	ls.Insert(tri("s2", "p", "o"))
	if _, err := ls.Compact(); err != nil {
		t.Fatal(err)
	}
	base := ls.Base()
	inBase, absent := base.Triples()[0], store.EncTriple{S: 1, P: 1, O: 1}

	for name, bad := range map[string]*View{
		"tombstone absent from base": {add: emptyDelta, del: newDelta([]store.EncTriple{absent})},
		"add present in base":        {add: newDelta([]store.EncTriple{inBase}), del: emptyDelta},
	} {
		ls.Insert(tri("s3", "p", "o"))
		bad.base, bad.epoch = base, ls.Epoch()
		ls.cur.Store(bad)
		if _, err := ls.Compact(); !errors.Is(err, store.ErrDeltaNotResolved) {
			t.Fatalf("%s: Compact = %v, want ErrDeltaNotResolved", name, err)
		}
		if ls.Base() != base {
			t.Fatalf("%s: base was swapped by a failed fold", name)
		}
		if st := ls.LiveStats(); st.MemtableOps == 0 || st.MemtableAdds != 1 {
			t.Errorf("%s: memtable after rollback = %+v, want the pending insert retained", name, st)
		}
		if ls.View().NumTriples() != 3 {
			t.Errorf("%s: live store serves %d triples, want 3", name, ls.View().NumTriples())
		}
		if st := openImage(t, path); st.NumTriples() != 2 {
			t.Errorf("%s: on-disk image holds %d triples, want 2 (old image)", name, st.NumTriples())
		}
	}
	if cs, err := ls.Compact(); err != nil || cs.Merged != 3 {
		t.Fatalf("retry on a rebuilt view: %+v, %v; want merged=3", cs, err)
	}
	if st := openImage(t, path); st.NumTriples() != 3 {
		t.Errorf("image after retry holds %d triples, want 3", st.NumTriples())
	}
}
