// Command sparql-server serves a dataset as a minimal SPARQL endpoint:
//
//	sparql-server -data graph.nt -addr :8085 -timeout 30s -max-inflight 64
//
// then:
//
//	curl 'http://localhost:8085/sparql?query=SELECT+*+WHERE+{?s+?p+?o}+LIMIT+5'
//	curl 'http://localhost:8085/stats'
//	curl 'http://localhost:8085/healthz'
//
// -data accepts an N-Triples document, a binary snapshot image written
// by `datagen -snapshot` / DB.WriteSnapshot, or a shard manifest
// written by `datagen -shards k` / DB.WriteShards — told apart by
// leading magic bytes. N-Triples are parsed and indexed at boot
// (O(n log n)); a snapshot is memory-mapped and served immediately, the
// intended cold-start path for production replicas. A shard set's
// images are mapped and folded back into the one store they were split
// from, so responses are byte-identical to a single-store server.
// Startup logs report which path ran and how long it took.
//
// -timeout caps each query's wall-clock time (504 on expiry), and
// -max-inflight bounds concurrently evaluating queries (503 when
// saturated); each query is evaluated on its request's goroutine, so
// -max-inflight also bounds the cores queries occupy.
// -plan-cache sizes the per-server LRU of prepared query plans: repeated
// queries skip parsing and plan construction (X-Plan-Cache: hit|miss),
// and each cached plan memoizes up to 1 MiB of its encoded responses, so
// a repeated request is answered from memory without executing or
// taking an in-flight slot (X-Result-Cache: hit|fill|wait|stream) —
// at most -plan-cache MiB in all, dropped by the next write batch under
// -live; larger answers are streamed as without a cache. GET /stats
// reports the cache's counters.
//
// SIGINT or SIGTERM shuts the server down cleanly: it stops accepting
// connections, lets in-flight requests finish (up to 10s), stops the
// background compactor and closes the database, which fsyncs and
// closes the WAL, then logs "stopped" and exits 0.
//
// -live enables live updates: POST /update accepts N-Triples
// insert/delete batches while queries keep serving (each query pinned
// to one epoch), and a background compactor folds the memtable into
// the frozen base every -compact-interval or once -compact-threshold
// pending operations accumulate. -compact-snapshot persists each
// compacted base atomically to the given path (a crash mid-compaction
// leaves the previous image intact); POST /compact forces a compaction.
//
// -wal-dir adds a write-ahead log under -live: every accepted update is
// journaled and fsynced (group-committed across concurrent writers)
// before it is acknowledged, and on startup the server replays whatever
// the log holds — so neither a crash (even kill -9) nor a power loss
// loses an acknowledged write. With -compact-snapshot also set,
// restarts boot from the newest compacted image and replay only the
// tail of the log; compactions retire the journal segments their
// snapshot makes redundant, so the log stays short. Without it the log
// holds every update since it was created.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sparqluo"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "data file: N-Triples, snapshot image or shard manifest (required)")
		addr        = flag.String("addr", ":8085", "listen address")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-query timeout (0 = none)")
		maxInFlight = flag.Int("max-inflight", 64, "max concurrently evaluating queries (0 = unlimited)")
		planCache   = flag.Int("plan-cache", 128, "LRU size of the prepared-plan cache (0 = disabled)")

		live             = flag.Bool("live", false, "enable live updates (POST /update) over the loaded data")
		compactInterval  = flag.Duration("compact-interval", 30*time.Second, "max time the memtable stays dirty before a background compaction")
		compactThreshold = flag.Int("compact-threshold", 10000, "pending ops that trigger an immediate background compaction")
		compactSnapshot  = flag.String("compact-snapshot", "", "persist each compacted base to this snapshot path (atomic)")
		walDir           = flag.String("wal-dir", "", "write-ahead log directory: journal every update before acking, replay it at startup (requires -live)")
	)
	flag.Parse()
	if *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	log.SetPrefix("sparql-server: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if *walDir != "" && !*live {
		log.Fatal("-wal-dir requires -live (a read-only server takes no writes to journal)")
	}

	// Crash recovery prefers the newest durable state: when a compaction
	// snapshot from a previous run exists, boot from it (the WAL then
	// replays only the batches it does not hold) instead of re-parsing
	// the original data file.
	bootPath := *dataPath
	if *live && *compactSnapshot != "" {
		if _, statErr := os.Stat(*compactSnapshot); statErr == nil {
			bootPath = *compactSnapshot
			log.Printf("recovering from compaction snapshot %s (ignoring -data %s)", bootPath, *dataPath)
		}
	}
	db, source, err := openData(bootPath)
	if err != nil {
		log.Fatal(err)
	}
	stopCompaction := func() {}
	if *live {
		if err := db.EnableLiveUpdates(sparqluo.LiveOptions{
			SnapshotPath: *compactSnapshot,
			WALDir:       *walDir,
		}); err != nil {
			log.Fatal(err)
		}
		stopCompaction, err = db.StartCompaction(sparqluo.CompactionOptions{
			Interval:  *compactInterval,
			Threshold: *compactThreshold,
			OnError:   func(err error) { log.Printf("compaction: %v", err) },
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("live updates enabled (compact-interval=%v compact-threshold=%d snapshot=%q)",
			*compactInterval, *compactThreshold, *compactSnapshot)
		if *walDir != "" {
			rec, _ := db.Recovery()
			log.Printf("wal enabled (dir=%s): replayed %d batches (%d inserts, %d deletes), truncated %d torn-tail bytes",
				*walDir, rec.Batches, rec.Inserted, rec.Deleted, rec.TruncatedBytes)
		}
	}

	handler := sparqluo.NewHandler(db,
		sparqluo.WithQueryTimeout(*timeout),
		sparqluo.WithMaxInFlight(*maxInFlight),
		sparqluo.WithPlanCache(*planCache),
	)
	log.Printf("listening on %s (source=%s timeout=%v max-inflight=%d plan-cache=%d)",
		*addr, source, *timeout, *maxInFlight, *planCache)
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Queries carry their own deadline (-timeout) and results may
		// stream for a long time, so only the phases the client controls
		// alone are bounded: sending the request line and headers, and
		// idling on a kept-alive connection.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	exitCode := 0
	select {
	case err := <-serveErr: // could not listen, or the listener failed
		log.Printf("serve: %v", err)
		exitCode = 1
	case <-ctx.Done():
		stopSignals() // a second signal kills the process the default way
		log.Printf("shutting down: draining in-flight requests")
		drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(drain); err != nil {
			log.Printf("shutdown: %v; closing remaining connections", err)
			srv.Close()
		}
		cancel()
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}
	// Requests are done: stop the compactor, then close the database,
	// which fsyncs and closes the WAL.
	stopCompaction()
	if err := db.Close(); err != nil {
		log.Printf("close: %v", err)
		exitCode = 1
	}
	log.Printf("stopped")
	os.Exit(exitCode)
}

// openData loads the dataset from a snapshot image, a shard manifest or
// an N-Triples document, auto-detected by magic, and logs the cold-start
// timing so snapshot wins are visible in ops output.
func openData(path string) (*sparqluo.DB, string, error) {
	start := time.Now()
	db, source, err := sparqluo.OpenFile(path)
	if err != nil {
		return nil, "", err
	}
	verb := "parsed+froze"
	switch source {
	case "snapshot":
		verb = "mapped"
	case "shards":
		verb = "mapped+folded"
	}
	log.Printf("source=%s %s %s in %v (%d triples)",
		source, verb, path, time.Since(start), db.NumTriples())
	log.Printf("store %s", db.MemStats())
	return db, source, nil
}
