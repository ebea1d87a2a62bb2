// Command datagen writes synthetic benchmark datasets as N-Triples:
//
//	datagen -dataset lubm -scale 13 -out lubm13.nt
//	datagen -dataset dbpedia -scale 12000 -out dbp.nt
//
// For LUBM the scale is the number of universities; for DBpedia-like data
// it is the number of encyclopedia articles.
//
// With -snapshot, datagen additionally loads the triples into a store,
// freezes it, and writes a binary snapshot image that sparql-server and
// sparql-uo can open directly (skipping parse and index build):
//
//	datagen -dataset lubm -scale 13 -snapshot lubm13.img
//
// With -shards k (k > 1), the snapshot is instead written as k
// subject-range shard images plus a CRC-checked manifest at the
// -snapshot path; sparql-server and sparql-uo open the manifest
// directly, check every image against it, and fold the shards back into
// the one store they were split from:
//
//	datagen -dataset lubm -scale 13 -snapshot lubm13.shards -shards 4
//
// -out and -snapshot may be combined to produce both representations of
// the same dataset in one run; with -snapshot alone, no N-Triples are
// written.
package main

import (
	"flag"
	"fmt"
	"os"

	"sparqluo/internal/dbpedia"
	"sparqluo/internal/lubm"
	"sparqluo/internal/rdf"
	"sparqluo/internal/snapshot"
	"sparqluo/internal/store"
)

func main() {
	var (
		dataset  = flag.String("dataset", "lubm", "lubm|dbpedia")
		scale    = flag.Int("scale", 13, "universities (lubm) or entities (dbpedia)")
		out      = flag.String("out", "", "N-Triples output file (default stdout; \"-\" forces stdout)")
		snapPath = flag.String("snapshot", "", "also write a binary snapshot image to this path")
		shards   = flag.Int("shards", 1, "with -snapshot: split into this many subject-range shard images plus a manifest")
		memStats = flag.Bool("stats", false, "also load+freeze a store and report index memory to stderr")
	)
	flag.Parse()

	var triples []rdf.Triple
	switch *dataset {
	case "lubm":
		triples = lubm.Generate(lubm.DefaultConfig(*scale))
	case "dbpedia":
		triples = dbpedia.Generate(dbpedia.DefaultConfig(*scale))
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	// Emit N-Triples unless the caller asked only for a snapshot image.
	if *out != "" || *snapPath == "" {
		w := os.Stdout
		if *out != "" && *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		enc := rdf.NewEncoder(w)
		for _, t := range triples {
			if err := enc.Encode(t); err != nil {
				fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote %d triples\n", len(triples))
	}

	if *snapPath != "" || *memStats {
		st, err := store.FromRDF(triples)
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		if *memStats {
			fmt.Fprintf(os.Stderr, "datagen: store %s\n", st.MemStats())
		}
		if *snapPath != "" && *shards > 1 {
			paths, err := snapshot.WriteShards(*snapPath, st, *shards)
			if err != nil {
				fatal(err)
			}
			var total int64
			for _, p := range paths {
				fi, err := os.Stat(p)
				if err != nil {
					fatal(err)
				}
				total += fi.Size()
			}
			fmt.Fprintf(os.Stderr, "datagen: wrote %d shard images + manifest %s (%d triples, %d bytes)\n",
				*shards, *snapPath, st.NumTriples(), total)
		} else if *snapPath != "" {
			if err := snapshot.WriteFile(*snapPath, st); err != nil {
				fatal(err)
			}
			fi, err := os.Stat(*snapPath)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "datagen: wrote snapshot %s (%d triples, %d bytes)\n",
				*snapPath, st.NumTriples(), fi.Size())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
