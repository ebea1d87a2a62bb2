package sparqluo_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"sparqluo"
	"sparqluo/internal/bench"
	"sparqluo/internal/dbpedia"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
)

// TestShardedRoundTripEquivalence is the sharding subsystem's central
// acceptance test: on the LUBM and DBpedia fixtures, a database opened
// from a k-way shard set must answer every benchmark query with output
// byte-identical (W3C SPARQL JSON) to the single parse+freeze database
// it was written from — across both engines, all four strategies, a
// sweep of shard counts and both serial and parallel evaluation.
// Anything the sharded accessors reorder, drop or duplicate — a k-way
// merge tie broken differently, a shard boundary routed to the wrong
// shard — surfaces here as a byte difference.
func TestShardedRoundTripEquivalence(t *testing.T) {
	lubmScale, dbpScale := 13, 1500
	if testing.Short() || raceEnabled {
		// The race build keeps the short-mode fixtures: the detector's
		// job is interleaving coverage, and at full scale this test
		// alone overruns the default per-package timeout ~10× slowed.
		lubmScale, dbpScale = 3, 300
	}
	fixtures := []struct {
		name    string
		triples []rdf.Triple
	}{
		{"LUBM", lubm.Generate(lubm.DefaultConfig(lubmScale))},
		{"DBpedia", dbpedia.Generate(dbpedia.DefaultConfig(dbpScale))},
	}
	engines := []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin}
	engineNames := []string{"wco", "binary"}
	strategies := []sparqluo.Strategy{sparqluo.Base, sparqluo.TT, sparqluo.CP, sparqluo.Full}
	shardCounts := []int{1, 2, 4}
	if raceEnabled {
		// Race-detector cost per query dwarfs the fixture size; keep the
		// dimension extremes and let the plain suite sweep the full grid.
		strategies = []sparqluo.Strategy{sparqluo.Base, sparqluo.Full}
		shardCounts = []int{1, 4}
	}

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			single := sparqluo.Open()
			single.AddAll(fx.triples)
			single.Freeze()
			dir := t.TempDir()

			for _, k := range shardCounts {
				k := k
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					manifest := filepath.Join(dir, fmt.Sprintf("store%d.shards", k))
					if _, err := single.WriteShards(manifest, k); err != nil {
						t.Fatalf("WriteShards: %v", err)
					}
					sharded, err := sparqluo.OpenShards(manifest)
					if err != nil {
						t.Fatalf("OpenShards: %v", err)
					}
					defer sharded.Close()
					if sharded.NumShards() != k {
						t.Fatalf("NumShards = %d, want %d", sharded.NumShards(), k)
					}
					if sharded.NumTriples() != single.NumTriples() {
						t.Fatalf("NumTriples = %d, want %d", sharded.NumTriples(), single.NumTriples())
					}

					for _, q := range bench.AllQueries() {
						if q.Dataset != fx.name {
							continue
						}
						for ei, engine := range engines {
							for _, strat := range strategies {
								for _, par := range []int{1, 4} {
									opts := []sparqluo.Option{
										sparqluo.WithEngine(engine),
										sparqluo.WithStrategy(strat),
										sparqluo.WithParallelism(par),
									}
									want := queryJSON(t, single, q.Text, opts)
									got := queryJSON(t, sharded, q.Text, opts)
									if !bytes.Equal(want, got) {
										t.Errorf("%s %s/%v par=%d: sharded results differ from single store\nsingle:  %.200s\nsharded: %.200s",
											q.ID, engineNames[ei], strat, par, want, got)
									}
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestShardedLimitPushdownEquivalence: LIMIT/OFFSET windows — the
// early-termination path — are byte-identical between sharded and
// single stores, and cost the same work. A sharded store is scanned
// through the same Reader accessors as a single one, so every query ×
// engine × window pulls exactly the rows the single store pulls — not
// up to k× them, as a per-shard capped scan would.
func TestShardedLimitPushdownEquivalence(t *testing.T) {
	scale := 5
	if testing.Short() {
		scale = 2
	}
	single := sparqluo.Open()
	single.AddAll(lubm.Generate(lubm.DefaultConfig(scale)))
	single.Freeze()
	manifest := filepath.Join(t.TempDir(), "store.shards")
	if _, err := single.WriteShards(manifest, 4); err != nil {
		t.Fatalf("WriteShards: %v", err)
	}
	sharded, err := sparqluo.OpenShards(manifest)
	if err != nil {
		t.Fatalf("OpenShards: %v", err)
	}
	defer sharded.Close()

	queries := []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?x ?y WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?y }`,
	}
	type window struct{ limit, offset int }
	windows := []window{{3000, 0}, {20000, 0}}
	for _, limit := range []int{0, 1, 7, 100} {
		for _, offset := range []int{0, 3} {
			windows = append(windows, window{limit, offset})
		}
	}
	for _, text := range queries {
		for _, eng := range []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin} {
			for _, w := range windows {
				opts := []sparqluo.Option{
					sparqluo.WithEngine(eng),
					sparqluo.WithLimit(w.limit),
					sparqluo.WithOffset(w.offset),
				}
				want, wantPulled := queryPulled(t, single, text, opts)
				got, gotPulled := queryPulled(t, sharded, text, opts)
				if !bytes.Equal(want, got) {
					t.Errorf("limit=%d offset=%d: sharded window differs\nsingle:  %.150s\nsharded: %.150s",
						w.limit, w.offset, want, got)
				}
				if gotPulled != wantPulled {
					t.Errorf("%s engine=%d limit=%d offset=%d: sharded pulled %d rows, single store %d",
						text, eng, w.limit, w.offset, gotPulled, wantPulled)
				}
			}
		}
	}
}

// TestShardedRowsPulledAggregation: the work metric of a sharded store
// is the single store's, on a full scan (a last-shard-wins bug would
// report a fraction of it) and under LIMIT push-down (the capped scan
// stops at the same row, so the savings stay exactly as large).
func TestShardedRowsPulledAggregation(t *testing.T) {
	single := sparqluo.Open()
	single.AddAll(lubm.Generate(lubm.DefaultConfig(3)))
	single.Freeze()
	manifest := filepath.Join(t.TempDir(), "store.shards")
	if _, err := single.WriteShards(manifest, 4); err != nil {
		t.Fatalf("WriteShards: %v", err)
	}
	sharded, err := sparqluo.OpenShards(manifest)
	if err != nil {
		t.Fatalf("OpenShards: %v", err)
	}
	defer sharded.Close()

	const scan = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`
	_, full := queryPulled(t, sharded, scan, nil)
	_, refFull := queryPulled(t, single, scan, nil)
	if full != refFull {
		t.Errorf("full scan pulled %d rows sharded, %d single", full, refFull)
	}
	if full < sharded.NumTriples() {
		t.Errorf("full scan pulled %d rows, store has %d triples", full, sharded.NumTriples())
	}
	capOpts := []sparqluo.Option{sparqluo.WithLimit(5)}
	_, capped := queryPulled(t, sharded, scan, capOpts)
	_, refCapped := queryPulled(t, single, scan, capOpts)
	if capped != refCapped {
		t.Errorf("LIMIT 5 pulled %d rows sharded, %d single", capped, refCapped)
	}
	t.Logf("rows pulled: full=%d capped=%d", full, capped)
}

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
