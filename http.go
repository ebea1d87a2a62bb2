package sparqluo

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"sparqluo/internal/rdf"
	"sparqluo/internal/sparql"
)

// HandlerOption configures the HTTP endpoint returned by NewHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	timeout     time.Duration
	maxInFlight int
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

// WithPlanCache gives the handler an LRU cache of n prepared plans
// (default: 0, disabled), keyed by normalized query text; one cached
// plan serves every strategy and engine, which are per-execution
// options. A plan hit skips parsing and BE-tree construction; every
// /sparql response then carries an X-Plan-Cache: hit|miss header.
// Cached plans are immutable and shared safely across concurrent
// requests.
//
// Each cached plan also memoizes the encoded response bytes of its
// executions, keyed by every request option that can change them
// (engine, strategy, limit, offset), so a repeat of a hot query is a
// map lookup and one Write with Content-Length — no evaluation, no
// encoding, and no in-flight slot (WithMaxInFlight bounds evaluations;
// a memoized answer is not one). X-Result-Cache reports how each
// response was produced: hit (memoized bytes), fill (executed, captured
// and memoized), wait (served the bytes of a concurrent fill) or stream
// (executed and streamed, nothing memoized). A body lives and dies with
// its plan entry. Memory is bounded: the bodies under one plan entry
// total at most 1 MiB (responseCacheCap), so the cache holds at most
// n MiB of them, plus at most 1 MiB of capture buffer per request that
// is filling; a response that outgrows the cap is streamed row by row
// as if there were no cache and is never held beyond the captured
// prefix.
//
// Concurrent requests for one uncached (text, options) are coalesced:
// the first executes, the others wait for it — bounded by their own
// deadline or cancellation, holding no in-flight slot — and serve its
// bytes. If that execution is abandoned (error, timeout, client gone,
// over the cap) each waiter executes for itself through the normal
// admission valve.
//
// On a live database the cache holds exactly one write epoch: plans
// resolve constant terms against the dictionary when they are built and
// bodies are answers as of one epoch, so the first lookup after a write
// batch (or a compaction swap, which advances the epoch too) empties
// the cache, and no plan or body from an older epoch is served to a
// request that arrives after the write was acknowledged.
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
// The optional "strategy" parameter selects base|tt|cp|full in any case
// (default full), "engine" selects wco|binary (default wco), and "timeout"
// lowers the per-request deadline (a Go duration, capped by
// WithQueryTimeout). "limit" and "offset" (non-negative integers) apply
// a per-request pagination window on top of the query text (see
// WithLimit/WithOffset); because the window is applied at execution
// time, paginated requests share one plan-cache entry. Operational
// limits are configured with WithQueryTimeout and WithMaxInFlight; each
// request is evaluated on its own goroutine, so WithMaxInFlight bounds
// the cores queries occupy. WithPlanCache adds an LRU of prepared plans
// so repeated queries skip parse+build (X-Plan-Cache: hit|miss), each
// plan memoizing its encoded responses up to 1 MiB so a repeated
// request is answered without executing (X-Result-Cache:
// hit|fill|wait|stream): such answers carry a Content-Length instead of
// being streamed, take no in-flight slot, are dropped by the next write
// batch on a live database, and concurrent first requests for one text
// run it once. /stats reports the cache's counters.
func NewHandler(db *DB, opts ...HandlerOption) http.Handler {
	cfg := handlerConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	var inflight valve
	if cfg.maxInFlight > 0 {
		inflight = make(valve, cfg.maxInFlight)
	}
	var cache *planCache
	if cfg.planCache > 0 {
		cache = newPlanCache(cfg.planCache)
	}
	mux := http.NewServeMux()
	mux.Handle("/sparql", &queryEndpoint{db: db, timeout: cfg.timeout, inflight: inflight, cache: cache})
	// POST /update applies one N-Triples document as one atomic batch of
	// inserts (default) or deletes (?op=delete) against a live database.
	// It shares the /sparql admission valve: an update counts against
	// the same in-flight budget as a query, so overload sheds both
	// uniformly (503 + Retry-After). The op parameter is read from the
	// URL only — the body is the N-Triples payload, never a form. A body
	// that does not parse is the client's fault (400); a batch the
	// journal could not take is the server's (500) — a failed write or
	// fsync poisons the log, so every later update answers 500 until the
	// server is restarted, while /sparql keeps serving.
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
		if !inflight.enter(w) {
			return
		}
		defer inflight.leave()
		ts, err := rdf.ParseAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if op == "insert" {
			err = db.Insert(ts...)
		} else {
			err = db.Delete(ts...)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		ls, _ := db.LiveStats()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"op\":%q,\"applied\":%d,\"epoch\":%d}\n", op, len(ts), ls.Epoch)
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
		if !db.loading() {
			st := db.reader()
			s := st.Stats()
			fmt.Fprintf(w, "entities: %d\npredicates: %d\nliterals: %d\n",
				s.NumEntities, s.NumPreds, s.NumLiterals)
			m := st.MemStats()
			fmt.Fprintf(w, "dict-bytes: %d\ndict-index-bytes: %d\nmemory: %s\n", m.DictBytes, m.DictIndexBytes, m)
		}
		if cache != nil {
			cs := cache.snapshot()
			fmt.Fprintf(w, "plan-cache-entries: %d\nplan-cache-hits: %d\nplan-cache-misses: %d\n",
				cs.Entries, cs.PlanHits, cs.PlanMisses)
			fmt.Fprintf(w, "result-cache-hits: %d\nresult-cache-fills: %d\nresult-cache-waits: %d\nresult-cache-overflows: %d\nresult-cache-bytes: %d\n",
				cs.Hits, cs.Fills, cs.Waits, cs.Overflows, cs.Bytes)
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
	// Load-balancer readiness probe: 200 exactly when the DB is frozen,
	// i.e. loading finished and queries are allowed. Handlers are
	// normally constructed after Freeze (adding triples while serving
	// is not supported); the 503 branch keeps a misconfigured replica
	// out of rotation instead of serving errors.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if db.loading() {
			http.Error(w, "loading: store not frozen yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "ok\n")
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
// parameters. All of them apply per execution, never at plan time, so
// none is part of the plan-cache key: every strategy, engine and page
// of a query hits the same cached plan, and together they key the
// responses memoized under it.
func optionsFromRequest(r *http.Request) (respKey, error) {
	k := respKey{limit: -1}
	var err error
	if k.strategy, err = ParseStrategy(cmp.Or(r.FormValue("strategy"), "full")); err != nil {
		return k, err
	}
	if k.engine, err = ParseEngine(cmp.Or(r.FormValue("engine"), "wco")); err != nil {
		return k, err
	}
	if raw := r.FormValue("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return k, fmt.Errorf("invalid limit %q", raw)
		}
		k.limit = n
	}
	if raw := r.FormValue("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return k, fmt.Errorf("invalid offset %q", raw)
		}
		k.offset = n
	}
	return k, nil
}

// valve is the admission valve /sparql evaluations and /update share: a
// counting semaphore that sheds instead of queueing. A nil valve admits
// everything.
type valve chan struct{}

// enter takes an in-flight slot, or answers 503 with Retry-After and
// reports false. Every successful enter is paired with a leave.
func (v valve) enter(w http.ResponseWriter) bool {
	if v == nil {
		return true
	}
	select {
	case v <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded: too many in-flight queries", http.StatusServiceUnavailable)
		return false
	}
}

func (v valve) leave() {
	if v != nil {
		<-v
	}
}

// queryEndpoint serves /sparql.
type queryEndpoint struct {
	db       *DB
	timeout  time.Duration
	inflight valve
	cache    *planCache // nil: every request parses, executes and streams
}

func (h *queryEndpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	query := r.FormValue("query")
	if query == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	k, err := optionsFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	timeout, err := timeoutFromRequest(r, h.timeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The deadline covers everything from here on, including time spent
	// waiting on another request's fill.
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if h.cache == nil {
		prep, err := h.db.Prepare(query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h.execute(ctx, w, prep, k, w)
		return
	}

	// Resolve the plan before taking an in-flight slot: a cache hit
	// skips parse+build entirely, and plan construction is cheap enough
	// not to count against the evaluation-concurrency budget. One
	// Prepared serves every strategy and engine (both are execution
	// options; estimates are warmed per engine inside it), so the key
	// is the text alone, in the spelling all texts of its token stream
	// share.
	key := sparql.CanonicalText(query)
	// Epoch 0 is a database that is not live, so that enabling live
	// updates under a handler starts a new generation: the responses
	// memoized before came from the frozen store, and a plan encodes its
	// constants against the dictionary of its own epoch.
	var epoch uint64
	if h.db.live != nil {
		epoch = h.db.live.Epoch() + 1
	}
	ent := h.cache.get(key, epoch)
	if ent != nil {
		w.Header().Set("X-Plan-Cache", "hit")
	} else {
		prep, err := h.db.Prepare(query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ent = h.cache.put(key, epoch, prep)
		w.Header().Set("X-Plan-Cache", "miss")
	}

	body, wait, fill := h.cache.begin(ent, k)
	outcome := "hit"
	if wait != nil {
		select {
		case <-wait.done:
		case <-ctx.Done():
			writeExecError(w, ctx.Err())
			return
		}
		body, outcome = wait.body, "wait"
	}
	switch {
	case body != nil:
		writeBody(w, outcome, body)
	case fill != nil:
		h.fill(ctx, w, ent, k, fill)
	default: // known to outgrow the cap, or the fill waited on was abandoned
		w.Header().Set("X-Result-Cache", "stream")
		h.execute(ctx, w, ent.prep, k, w)
	}
}

// execute runs one evaluation through the admission valve and encodes
// its result to out (w itself, or a capture in front of it), answering
// 503/504/400 on w when it cannot. It reports whether the whole result
// was encoded.
func (h *queryEndpoint) execute(ctx context.Context, w http.ResponseWriter, prep *Prepared, k respKey, out io.Writer) bool {
	if !h.inflight.enter(w) {
		return false
	}
	defer h.inflight.leave()
	res, err := prep.ExecContext(ctx, k.apply)
	if err != nil {
		writeExecError(w, err)
		return false
	}
	// WriteJSON streams bindings row by row; the handler never
	// materializes a []Solution.
	w.Header().Set("Content-Type", "application/sparql-results+json")
	// On failure the headers are already out; nothing more to do.
	return res.WriteJSON(out) == nil
}

// fill executes variant k of ent on behalf of every request waiting on
// f. The response is captured: one that ends under responseCacheCap is
// memoized and then written in one piece; one that overflows abandons
// the fill at that moment — releasing the waiters — and goes on
// streaming exactly as it would without a cache.
func (h *queryEndpoint) fill(ctx context.Context, w http.ResponseWriter, ent *planCacheEntry, k respKey, f *respFill) {
	finished := false
	abandon := func(overflow bool) {
		if !finished {
			finished = true
			h.cache.finish(ent, k, f, nil, overflow)
		}
	}
	defer abandon(false) // error, timeout, client gone — or a panic below: waiters must not hang
	cw := &captureWriter{w: w, overflow: func() {
		w.Header().Set("X-Result-Cache", "stream")
		abandon(true)
	}}
	if !h.execute(ctx, w, ent.prep, k, cw) || finished {
		return
	}
	finished = true
	body := bytes.Clone(cw.buf) // exact size: the cache accounts len, not cap
	h.cache.finish(ent, k, f, body, false)
	writeBody(w, "fill", body)
}

// writeBody answers with a complete encoded response.
func writeBody(w http.ResponseWriter, outcome string, body []byte) {
	hd := w.Header()
	hd.Set("X-Result-Cache", outcome)
	hd.Set("Content-Type", "application/sparql-results+json")
	hd.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) // a failed write means the client is gone
}

// writeExecError answers a request whose execution (or wait for one)
// ended without a result.
func writeExecError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query timed out", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away: nobody is listening for a status, and
		// answering 503 would poison intermediaries that treat it as
		// backend overload (Retry-After storms against a healthy
		// server). Log and drop; 503 stays reserved for the in-flight
		// limiter.
		log.Printf("sparqluo: query cancelled by client: %v", err)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// captureWriter holds what is written to it, up to responseCacheCap
// bytes. The write that would pass the cap calls overflow once, flushes
// the captured prefix to w and turns the writer into a pass-through, so
// no more than the cap is ever buffered.
type captureWriter struct {
	w         http.ResponseWriter
	buf       []byte
	overflow  func()
	streaming bool
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if !c.streaming {
		need := len(c.buf) + len(p)
		if need <= responseCacheCap {
			if need > cap(c.buf) { // grow by doubling, never past the cap
				grown := make([]byte, len(c.buf), min(max(2*cap(c.buf), need), responseCacheCap))
				copy(grown, c.buf)
				c.buf = grown
			}
			c.buf = append(c.buf, p...)
			return len(p), nil
		}
		c.streaming = true
		c.overflow()
		prefix := c.buf
		c.buf = nil
		if _, err := c.w.Write(prefix); err != nil {
			return 0, err
		}
	}
	return c.w.Write(p)
}
