package sparqluo_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"sparqluo"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
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
	opened, source, err := sparqluo.OpenFile(manifest)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer opened.Close()
	if source != "shards" {
		t.Errorf("source = %q, want \"shards\"", source)
	}
	if opened.NumShards() != 2 {
		t.Errorf("NumShards = %d, want 2", opened.NumShards())
	}
	if opened.NumTriples() != db.NumTriples() {
		t.Errorf("NumTriples = %d, want %d", opened.NumTriples(), db.NumTriples())
	}
}

// TestShardedDBIsReadOnly: mutation entry points reject a sharded
// database with clear errors rather than corrupting one shard.
func TestShardedDBIsReadOnly(t *testing.T) {
	db := sparqluo.Open()
	db.AddAll(lubm.Generate(lubm.DefaultConfig(1)))
	db.Freeze()
	manifest := filepath.Join(t.TempDir(), "store.shards")
	if _, err := db.WriteShards(manifest, 2); err != nil {
		t.Fatalf("WriteShards: %v", err)
	}
	sharded, err := sparqluo.OpenShards(manifest)
	if err != nil {
		t.Fatalf("OpenShards: %v", err)
	}
	defer sharded.Close()

	if err := sharded.Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load on a sharded DB should fail")
	}
	if sharded.Store() != nil {
		t.Error("Store() on a sharded DB should return nil")
	}
	if err := sharded.WriteSnapshot(filepath.Join(t.TempDir(), "x.img")); err == nil {
		t.Error("WriteSnapshot on a sharded DB should fail")
	}
	if _, err := sharded.WriteShards(filepath.Join(t.TempDir(), "y.shards"), 2); err == nil {
		t.Error("WriteShards on a sharded DB should fail")
	}
	if err := sharded.Add(rdf.Triple{S: rdf.NewIRI("s"), P: rdf.NewIRI("p"), O: rdf.NewIRI("o")}); !errors.Is(err, sparqluo.ErrFrozen) {
		t.Errorf("Add on a sharded DB: err = %v, want ErrFrozen", err)
	}
	// Freeze must stay a harmless no-op, and queries must keep working.
	sharded.Freeze()
	if _, err := sharded.Query(`SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`); err != nil {
		t.Errorf("query after no-op Freeze: %v", err)
	}
}
