package sparqluo_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"sparqluo"
	"sparqluo/internal/bench"
	"sparqluo/internal/dbpedia"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
)

// TestSnapshotRoundTripEquivalence is the snapshot subsystem's central
// acceptance test: on the LUBM and DBpedia fixtures, a database opened
// from a snapshot image must answer every benchmark query with output
// byte-identical (W3C SPARQL JSON) to the parse+freeze database it was
// written from — across both engines and all four strategies. Anything
// the image format dropped or reordered (permutation order, dictionary
// IDs, statistics feeding the cost models' plan choice) would surface
// here as a byte difference.
func TestSnapshotRoundTripEquivalence(t *testing.T) {
	lubmScale, dbpScale := 13, 1500
	if testing.Short() || raceEnabled {
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

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			parsed := sparqluo.Open()
			parsed.AddAll(fx.triples)
			parsed.Freeze()

			img := filepath.Join(t.TempDir(), "store.img")
			if err := parsed.WriteSnapshot(img); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			snap, err := sparqluo.OpenSnapshot(img)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			defer snap.Close()
			if snap.NumTriples() != parsed.NumTriples() {
				t.Fatalf("NumTriples = %d, want %d", snap.NumTriples(), parsed.NumTriples())
			}

			for _, q := range bench.AllQueries() {
				if q.Dataset != fx.name {
					continue
				}
				for ei, engine := range engines {
					for _, strat := range strategies {
						opts := []sparqluo.Option{
							sparqluo.WithEngine(engine),
							sparqluo.WithStrategy(strat),
						}
						want := queryJSON(t, parsed, q.Text, opts)
						got := queryJSON(t, snap, q.Text, opts)
						if !bytes.Equal(want, got) {
							t.Errorf("%s %s/%v: snapshot results differ from parsed store\nparsed:   %.200s\nsnapshot: %.200s",
								q.ID, engineNames[ei], strat, want, got)
						}
					}
				}
			}
		})
	}
}

func queryJSON(t *testing.T, db *sparqluo.DB, text string, opts []sparqluo.Option) []byte {
	t.Helper()
	body, _ := queryPulled(t, db, text, opts)
	return body
}

// queryPulled is queryJSON plus the number of rows the execution pulled
// (Results.RowsPulled), the work the answer cost.
func queryPulled(t *testing.T, db *sparqluo.DB, text string, opts []sparqluo.Option) ([]byte, int) {
	t.Helper()
	res, err := db.Query(text, opts...)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes(), res.RowsPulled()
}
