package sparqluo_test

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparqluo"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
	"sparqluo/internal/snapshot"
)

// TestOpenFileDetectsShardManifest: the one-flag data path tells shard
// manifests, snapshot images and N-Triples apart by magic.
func TestOpenFileDetectsShardManifest(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(1)))
	db.Freeze()
	dir := t.TempDir()
	manifest := filepath.Join(dir, "store.shards")
	if _, err := db.WriteShards(manifest, 2); err != nil {
		t.Fatalf("WriteShards: %v", err)
	}
	if ok, err := sparqluo.IsShardManifest(manifest); err != nil || !ok {
		t.Fatalf("IsShardManifest = (%v, %v), want (true, nil)", ok, err)
	}
	if m, err := snapshot.ReadManifest(manifest); err != nil || len(m.Shards) != 2 {
		t.Fatalf("ReadManifest: %v, want a 2-shard manifest", err)
	}
	opened, source, err := sparqluo.OpenFile(manifest)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer opened.Close()
	if source != "shards" {
		t.Errorf("source = %q, want \"shards\"", source)
	}
	if opened.NumTriples() != db.NumTriples() {
		t.Errorf("NumTriples = %d, want %d", opened.NumTriples(), db.NumTriples())
	}
	if !reflect.DeepEqual(opened.Store().Triples(), db.Store().Triples()) {
		t.Error("the opened shard set holds other triples than the store it was split from")
	}
}

// TestShardSetOpensAsOneStore: a shard set opens as an ordinary frozen
// database over one store, the one it was split from. It rejects
// writes until made live, and can be snapshotted, resharded and made
// live like any other frozen database.
func TestShardSetOpensAsOneStore(t *testing.T) {
	src := sparqluo.Open()
	src.AddAll(lubm.Generate(lubm.DefaultConfig(1)))
	src.Freeze()
	dir := t.TempDir()
	manifest := filepath.Join(dir, "store.shards")
	if _, err := src.WriteShards(manifest, 3); err != nil {
		t.Fatalf("WriteShards: %v", err)
	}
	db, err := sparqluo.OpenShards(manifest)
	if err != nil {
		t.Fatalf("OpenShards: %v", err)
	}
	defer db.Close()
	want := src.Store().Triples()
	if db.Store() == nil {
		t.Fatal("Store() of a shard-opened database is nil")
	}
	if !reflect.DeepEqual(db.Store().Triples(), want) {
		t.Fatal("the opened shard set holds other triples than the store it was split from")
	}

	tr := rdf.Triple{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/o")}
	if err := db.Add(tr); !errors.Is(err, sparqluo.ErrFrozen) {
		t.Errorf("Add before EnableLiveUpdates: err = %v, want ErrFrozen", err)
	}
	if err := db.Load(strings.NewReader("<http://ex/s> <http://ex/p> <http://ex/o> .\n")); !errors.Is(err, sparqluo.ErrFrozen) {
		t.Errorf("Load before EnableLiveUpdates: err = %v, want ErrFrozen", err)
	}

	img := filepath.Join(dir, "store.img")
	if err := db.WriteSnapshot(img); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	reopened, err := sparqluo.OpenSnapshot(img)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer reopened.Close()
	if !reflect.DeepEqual(reopened.Store().Triples(), want) {
		t.Error("the snapshot of a shard-opened database does not round-trip")
	}
	if _, err := db.WriteShards(filepath.Join(dir, "again.shards"), 2); err != nil {
		t.Errorf("WriteShards of a shard-opened database: %v", err)
	}

	if err := db.EnableLiveUpdates(sparqluo.LiveOptions{}); err != nil {
		t.Fatalf("EnableLiveUpdates: %v", err)
	}
	if _, err := db.WriteShards(filepath.Join(dir, "live.shards"), 2); err == nil {
		t.Error("WriteShards of a live database succeeded, want an error")
	}
	if err := db.Insert(tr); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := db.NumTriples(); got != len(want)+1 {
		t.Errorf("NumTriples after Insert+Flush = %d, want %d", got, len(want)+1)
	}
	res, err := db.Query(`SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Solutions()); n != 1 {
		t.Errorf("inserted triple: %d solutions, want 1", n)
	}
}
