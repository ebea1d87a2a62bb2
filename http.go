package sparqluo

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"
)

// HandlerOption configures the HTTP endpoint returned by NewHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	timeout     time.Duration
	maxInFlight int
	parallelism int
	planCache   int
}

// WithQueryTimeout caps the wall-clock time of each /sparql request
// (default: no limit). Requests that exceed it are aborted through the
// evaluator's context and answered with 504 Gateway Timeout. A request
// may lower — never raise — its own limit with a "timeout" form
// parameter holding a Go duration (e.g. timeout=250ms).
func WithQueryTimeout(d time.Duration) HandlerOption {
	return func(c *handlerConfig) { c.timeout = d }
}

// WithMaxInFlight bounds the number of /sparql requests evaluating
// concurrently (default: no limit). Requests beyond the bound are
// rejected immediately with 503 Service Unavailable and a Retry-After
// header, keeping tail latency flat under overload instead of queueing
// unboundedly.
func WithMaxInFlight(n int) HandlerOption {
	return func(c *handlerConfig) { c.maxInFlight = n }
}

// WithHandlerParallelism sets the per-query evaluation worker-pool size
// used for every request served by the handler (default: GOMAXPROCS;
// see WithParallelism). Deployments that cap in-flight queries high can
// set this low so concurrent requests don't oversubscribe the CPUs.
func WithHandlerParallelism(n int) HandlerOption {
	return func(c *handlerConfig) { c.parallelism = n }
}

// WithPlanCache gives the handler an LRU cache of n prepared plans
// (default: 0, disabled), keyed by normalized query text; one cached
// plan serves every strategy and engine, which are per-execution
// options. A cache hit skips parsing and BE-tree
// construction for the request; every /sparql response then carries an
// X-Plan-Cache: hit|miss header so cache effectiveness is observable
// from the client side. Cached plans are immutable and shared safely
// across concurrent requests. On a live database the write epoch is
// folded into the cache key: plans resolve constant terms against the
// dictionary when they are built, so a plan cached before an update
// could answer from a stale resolution — epoch keying makes every
// write batch start a fresh cache generation while repeated queries
// between writes still hit.
func WithPlanCache(n int) HandlerOption {
	return func(c *handlerConfig) { c.planCache = n }
}

// NewHandler returns an http.Handler exposing the database as a minimal
// SPARQL endpoint:
//
//	GET  /sparql?query=...          run a query (also accepts POST form)
//	POST /update?op=insert|delete   apply an N-Triples body (live DBs only)
//	POST /compact                   synchronously compact the memtable
//	GET  /stats                     dataset statistics and memory footprint
//	GET  /healthz                   readiness probe (200 once frozen)
//
// Query responses use the W3C SPARQL 1.1 Query Results JSON Format,
// streamed row by row (the handler never materializes the full result).
// The optional "strategy" parameter selects base|tt|cp|full (default
// full), "engine" selects wco|binary (default wco), and "timeout"
// lowers the per-request deadline (a Go duration, capped by
// WithQueryTimeout). "limit" and "offset" (non-negative integers) apply
// a per-request pagination window on top of the query text (see
// WithLimit/WithOffset); because the window is applied at execution
// time, paginated requests share one plan-cache entry. Operational
// limits are configured with WithQueryTimeout, WithMaxInFlight and
// WithHandlerParallelism; WithPlanCache adds an LRU of prepared plans
// so repeated queries skip parse+build (responses then carry an
// X-Plan-Cache: hit|miss header).
func NewHandler(db *DB, opts ...HandlerOption) http.Handler {
	cfg := handlerConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	var inflight chan struct{}
	if cfg.maxInFlight > 0 {
		inflight = make(chan struct{}, cfg.maxInFlight)
	}
	var cache *planCache
	if cfg.planCache > 0 {
		cache = newPlanCache(cfg.planCache)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", func(w http.ResponseWriter, r *http.Request) {
		query := r.FormValue("query")
		if query == "" {
			http.Error(w, "missing query parameter", http.StatusBadRequest)
			return
		}
		opts, err := optionsFromRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts = append(opts, WithParallelism(cfg.parallelism))
		timeout, err := timeoutFromRequest(r, cfg.timeout)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Resolve the plan before taking an in-flight slot: a cache hit
		// skips parse+build entirely, and plan construction is cheap
		// enough not to count against the evaluation-concurrency budget.
		var prep *Prepared
		if cache != nil {
			// One Prepared serves every strategy and engine (both are
			// execution options; estimates are warmed per engine inside
			// it), so the key is the normalized text alone.
			key := normalizeQueryText(query)
			// On a live database the write epoch is part of the key:
			// plans resolve constant terms against the dictionary at
			// build time, so a plan built before an update introduced a
			// term would keep answering from the old resolution. Stale
			// epochs age out of the LRU on their own.
			if ls := db.liveStore(); ls != nil {
				key += "\x00" + strconv.FormatUint(ls.Epoch(), 10)
			}
			cached, hit := cache.get(key)
			if hit {
				prep = cached
				w.Header().Set("X-Plan-Cache", "hit")
			} else {
				prep, err = db.Prepare(query)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				cache.put(key, prep)
				w.Header().Set("X-Plan-Cache", "miss")
			}
		} else {
			prep, err = db.Prepare(query)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if inflight != nil {
			select {
			case inflight <- struct{}{}:
				defer func() { <-inflight }()
			default:
				w.Header().Set("Retry-After", "1")
				http.Error(w, "server overloaded: too many in-flight queries", http.StatusServiceUnavailable)
				return
			}
		}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		res, err := prep.ExecContext(ctx, opts...)
		if err != nil {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				http.Error(w, "query timed out", http.StatusGatewayTimeout)
			case errors.Is(err, context.Canceled):
				// The client went away: nobody is listening for a status,
				// and answering 503 would poison intermediaries that treat
				// it as backend overload (Retry-After storms against a
				// healthy server). Log and drop; 503 stays reserved for
				// the in-flight limiter above.
				log.Printf("sparqluo: query cancelled by client: %v", err)
			default:
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		// WriteJSON streams bindings row by row; the handler never
		// materializes a []Solution.
		w.Header().Set("Content-Type", "application/sparql-results+json")
		if err := res.WriteJSON(w); err != nil {
			// Headers are already out; nothing more to do.
			return
		}
	})
	// POST /update applies one N-Triples document as one atomic batch of
	// inserts (default) or deletes (?op=delete) against a live database.
	// It shares the /sparql admission valve: an update counts against
	// the same in-flight budget as a query, so overload sheds both
	// uniformly (503 + Retry-After). The op parameter is read from the
	// URL only — the body is the N-Triples payload, never a form.
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			http.Error(w, "POST an N-Triples document", http.StatusMethodNotAllowed)
			return
		}
		if !db.Live() {
			http.Error(w, "live updates not enabled (start the server with -live)", http.StatusConflict)
			return
		}
		op := r.URL.Query().Get("op")
		if op == "" {
			op = "insert"
		}
		if op != "insert" && op != "delete" {
			http.Error(w, fmt.Sprintf("unknown op %q (want insert or delete)", op), http.StatusBadRequest)
			return
		}
		if inflight != nil {
			select {
			case inflight <- struct{}{}:
				defer func() { <-inflight }()
			default:
				w.Header().Set("Retry-After", "1")
				http.Error(w, "server overloaded: too many in-flight queries", http.StatusServiceUnavailable)
				return
			}
		}
		var n int
		var err error
		if op == "insert" {
			n, err = db.InsertNTriples(r.Body)
		} else {
			n, err = db.DeleteNTriples(r.Body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ls, _ := db.LiveStats()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"op\":%q,\"applied\":%d,\"epoch\":%d}\n", op, n, ls.Epoch)
	})
	// POST /compact synchronously folds the memtable into the frozen
	// base. It does not take an in-flight slot: compaction never blocks
	// queries (they finish on the view they pinned), and gating it
	// behind the valve would let query load starve durability.
	mux.HandleFunc("/compact", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			http.Error(w, "POST to compact", http.StatusMethodNotAllowed)
			return
		}
		if !db.Live() {
			http.Error(w, "live updates not enabled (start the server with -live)", http.StatusConflict)
			return
		}
		cs, err := db.Compact()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"merged\":%d,\"adds\":%d,\"dels\":%d,\"took_ms\":%.3f,\"persisted\":%v}\n",
			cs.Merged, cs.Adds, cs.Dels, float64(cs.Took.Microseconds())/1000, cs.Persisted)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "triples: %d\n", db.NumTriples())
		fmt.Fprintf(w, "shards: %d\n", db.NumShards())
		if s := db.st.Stats(); s != nil {
			fmt.Fprintf(w, "entities: %d\npredicates: %d\nliterals: %d\n",
				s.NumEntities, s.NumPreds, s.NumLiterals)
			// MemStats may (re)build indexes on an unfrozen store, so
			// only report it once frozen, where it is a pure read.
			// For a sharded database it aggregates across shards.
			m := db.st.MemStats()
			fmt.Fprintf(w, "dict-bytes: %d\nmemory: %s\n", m.DictBytes, m)
		}
		if ls, ok := db.LiveStats(); ok {
			fmt.Fprintf(w, "live: true\nepoch: %d\n", ls.Epoch)
			fmt.Fprintf(w, "memtable-triples: %d\ntombstones: %d\nmemtable-ops: %d\n",
				ls.MemtableAdds, ls.Tombstones, ls.MemtableOps)
			fmt.Fprintf(w, "compactions: %d\ncompaction-in-progress: %v\n",
				ls.Compactions, ls.Compacting)
			if !ls.LastCompaction.IsZero() {
				fmt.Fprintf(w, "last-compaction: %s\nlast-compaction-took: %v\nlast-compaction-merged: %d\n",
					ls.LastCompaction.UTC().Format(time.RFC3339), ls.LastCompactionTook, ls.LastCompactionMerged)
				fmt.Fprintf(w, "since-last-compaction: %v\n", ls.SinceLastCompaction.Round(time.Millisecond))
			}
			if js := ls.WAL; js != nil {
				fmt.Fprintf(w, "wal-segments: %d\nwal-bytes: %d\nwal-appended: %d\nwal-syncs: %d\n",
					js.Segments, js.Bytes, js.Appended, js.Syncs)
				if !js.LastSync.IsZero() {
					fmt.Fprintf(w, "wal-last-sync-age: %v\n", time.Since(js.LastSync).Round(time.Millisecond))
				}
				if js.Replayed > 0 || js.TruncatedBytes > 0 {
					fmt.Fprintf(w, "wal-replayed: %d\nwal-truncated-bytes: %d\n", js.Replayed, js.TruncatedBytes)
				}
			}
		}
	})
	// Load-balancer readiness probe: 200 exactly when the DB is frozen
	// (statistics exist), i.e. loading finished and queries are allowed.
	// Handlers are normally constructed after Freeze (loading a store
	// while serving it is not supported — pre-Freeze reads are
	// single-threaded by the store's contract); the 503 branch keeps a
	// misconfigured replica out of rotation instead of serving errors.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if db.st.Stats() == nil {
			http.Error(w, "loading: store not frozen yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok\nshards: %d\n", db.NumShards())
		if ls, ok := db.LiveStats(); ok {
			fmt.Fprintf(w, "live: true\ncompaction-in-progress: %v\nmemtable-triples: %d\ntombstones: %d\n",
				ls.Compacting, ls.MemtableAdds, ls.Tombstones)
			if !ls.LastCompaction.IsZero() {
				fmt.Fprintf(w, "since-last-compaction: %v\n", ls.SinceLastCompaction.Round(time.Millisecond))
			}
			if js := ls.WAL; js != nil {
				fmt.Fprintf(w, "wal-segments: %d\nwal-bytes: %d\n", js.Segments, js.Bytes)
				if !js.LastSync.IsZero() {
					fmt.Fprintf(w, "wal-last-sync-age: %v\n", time.Since(js.LastSync).Round(time.Millisecond))
				}
			}
		}
	})
	return mux
}

// timeoutFromRequest resolves the effective deadline for one request:
// the server-configured maximum, optionally lowered by the request's
// "timeout" form parameter.
func timeoutFromRequest(r *http.Request, max time.Duration) (time.Duration, error) {
	raw := r.FormValue("timeout")
	if raw == "" {
		return max, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid timeout %q", raw)
	}
	if max > 0 && d > max {
		d = max
	}
	return d, nil
}

// optionsFromRequest resolves the strategy/engine/limit/offset form
// parameters into query options. All of them apply per execution, never
// at plan time, so none is part of the plan-cache key: every strategy,
// engine and page of a query hits the same cached plan.
func optionsFromRequest(r *http.Request) (opts []Option, err error) {
	switch s := r.FormValue("strategy"); s {
	case "", "full":
		opts = append(opts, WithStrategy(Full))
	case "base":
		opts = append(opts, WithStrategy(Base))
	case "tt":
		opts = append(opts, WithStrategy(TT))
	case "cp":
		opts = append(opts, WithStrategy(CP))
	default:
		return nil, fmt.Errorf("unknown strategy %q", s)
	}
	switch e := r.FormValue("engine"); e {
	case "", "wco":
		opts = append(opts, WithEngine(WCO))
	case "binary":
		opts = append(opts, WithEngine(BinaryJoin))
	default:
		return nil, fmt.Errorf("unknown engine %q", e)
	}
	if raw := r.FormValue("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid limit %q", raw)
		}
		opts = append(opts, WithLimit(n))
	}
	if raw := r.FormValue("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid offset %q", raw)
		}
		opts = append(opts, WithOffset(n))
	}
	return opts, nil
}
