package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqluo"
	"sparqluo/internal/algebra"
	"sparqluo/internal/core"
	"sparqluo/internal/exec"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused it (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. All spans are
// recorded by the benchmark around calls into the program's public
// functions; the program itself is not instrumented.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	at := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: at})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	at := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
	return t.spans[id-1].dur()
}

// addFirst records a span whose duration the program reported itself
// (core.Result.TransformTime): the first d of its parent. Spans the
// parent caused during that interval become the new span's children.
func (t *tracer) addFirst(name string, parent, op int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].Start
	id := len(t.spans) + 1
	for i := parent; i < len(t.spans); i++ { // children follow their parent
		if s := &t.spans[i]; s.Parent == parent && s.Start < start+int64(d) {
			s.Parent = id
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: start + int64(d)})
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its children cover (children may overlap when the evaluator fans
// out, so their intervals are merged first).
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedEngine spans every call core makes into a BGP engine and counts
// the rows the engine hands back. parent and op are set by the single
// tracing client before each call into core.
type tracedEngine struct {
	exec.Engine
	tr         *tracer
	parent, op int
	rowsOut    atomic.Int64
}

func (e *tracedEngine) EvalBGP(ctx context.Context, st store.Reader, bgp exec.BGP, width int, cand exec.Candidates) *algebra.Bag {
	id := e.tr.begin("exec."+e.Name()+".evalbgp", e.parent, e.op)
	b := e.Engine.EvalBGP(ctx, st, bgp, width, cand)
	e.tr.end(id)
	e.rowsOut.Add(int64(b.Len()))
	return b
}

func (e *tracedEngine) EvalBGPTop(ctx context.Context, st store.Reader, bgp exec.BGP, width int, cand exec.Candidates, max int, pulled *int) *algebra.Bag {
	id := e.tr.begin("exec."+e.Name()+".evalbgp", e.parent, e.op)
	b := e.Engine.EvalBGPTop(ctx, st, bgp, width, cand, max, pulled)
	e.tr.end(id)
	e.rowsOut.Add(int64(b.Len()))
	return b
}

func (e *tracedEngine) EstimateCard(ctx context.Context, st store.Reader, bgp exec.BGP) float64 {
	id := e.tr.begin("exec."+e.Name()+".estimate", e.parent, e.op)
	defer e.tr.end(id)
	return e.Engine.EstimateCard(ctx, st, bgp)
}

func (e *tracedEngine) EstimateCost(ctx context.Context, st store.Reader, bgp exec.BGP) float64 {
	id := e.tr.begin("exec."+e.Name()+".estimate", e.parent, e.op)
	defer e.tr.end(id)
	return e.Engine.EstimateCost(ctx, st, bgp)
}

// tracedReader counts the accessor calls the engines and cost models
// make into the store, and the IDs and triples those calls return. The
// accessors are far too fine-grained to span individually.
type tracedReader struct {
	store.Reader
	calls, ids, triples atomic.Int64
}

func (r *tracedReader) idsOf(v []store.ID) []store.ID {
	r.calls.Add(1)
	r.ids.Add(int64(len(v)))
	return v
}

func (r *tracedReader) triplesOf(v []store.EncTriple) []store.EncTriple {
	r.calls.Add(1)
	r.triples.Add(int64(len(v)))
	return v
}

func (r *tracedReader) intOf(v int) int { r.calls.Add(1); return v }

func (r *tracedReader) Contains(s, p, o store.ID) bool {
	r.calls.Add(1)
	return r.Reader.Contains(s, p, o)
}
func (r *tracedReader) ObjectsSP(s, p store.ID) []store.ID { return r.idsOf(r.Reader.ObjectsSP(s, p)) }
func (r *tracedReader) SubjectsPO(p, o store.ID) []store.ID {
	return r.idsOf(r.Reader.SubjectsPO(p, o))
}
func (r *tracedReader) PredsSO(s, o store.ID) []store.ID { return r.idsOf(r.Reader.PredsSO(s, o)) }
func (r *tracedReader) SubjectTriples(s store.ID) []store.EncTriple {
	return r.triplesOf(r.Reader.SubjectTriples(s))
}
func (r *tracedReader) PredicateTriples(p store.ID) []store.EncTriple {
	return r.triplesOf(r.Reader.PredicateTriples(p))
}
func (r *tracedReader) ObjectTriples(o store.ID) []store.EncTriple {
	return r.triplesOf(r.Reader.ObjectTriples(o))
}
func (r *tracedReader) SubjectsOfPredicate(p store.ID) []store.ID {
	return r.idsOf(r.Reader.SubjectsOfPredicate(p))
}
func (r *tracedReader) ObjectsOfPredicate(p store.ID) []store.ID {
	return r.idsOf(r.Reader.ObjectsOfPredicate(p))
}
func (r *tracedReader) Triples() []store.EncTriple { return r.triplesOf(r.Reader.Triples()) }
func (r *tracedReader) CountP(p store.ID) int      { return r.intOf(r.Reader.CountP(p)) }
func (r *tracedReader) CountS(s store.ID) int      { return r.intOf(r.Reader.CountS(s)) }
func (r *tracedReader) CountO(o store.ID) int      { return r.intOf(r.Reader.CountO(o)) }
func (r *tracedReader) CountSP(s, p store.ID) int  { return r.intOf(r.Reader.CountSP(s, p)) }
func (r *tracedReader) CountPO(p, o store.ID) int  { return r.intOf(r.Reader.CountPO(p, o)) }
func (r *tracedReader) CountSO(s, o store.ID) int  { return r.intOf(r.Reader.CountSO(s, o)) }

// queryTrace runs a fixed list of query operations from one client, each
// four ways under one op id, and derives the per-layer metrics:
//
//	native    the workload's own path (HTTP request, or db.Query+WriteJSON)
//	prepared  a warm Prepared.Exec, then WriteJSON           (results, plan reuse)
//	plain     db.Query alone, no decorators                  (overhead baseline)
//	pipeline  sparql.Parse → core.BuildPlan → WarmEstimates → core.ExecPlan
//	          over a tracedReader with a tracedEngine         (sparql, core, exec, store)
//
// The pipeline repeats what db.Query does internally, so plain ÷
// pipeline time is the tracing overhead.
type queryTrace struct {
	tr      *tracer
	dbs     map[string]*sparqluo.DB // by dataset prefix of query.tmpl
	readers map[string]*tracedReader
	engines [2]*tracedEngine
	http    *httpClient // nil: the native path is the Go API
	prep    map[*query]*sparqluo.Prepared

	native, handlerSelf, prepExec, writeJSON []time.Duration
	plain, piped                             time.Duration
	hits, status503, status504               int
	jsonBytes                                int64
	rows, transformations, pruned, pulled    int
	joinSpace                                float64
}

func newQueryTrace(tr *tracer, dbs map[string]*sparqluo.DB, hc *httpClient) *queryTrace {
	qt := &queryTrace{tr: tr, dbs: dbs, http: hc, readers: map[string]*tracedReader{}, prep: map[*query]*sparqluo.Prepared{}}
	for name, db := range dbs {
		qt.readers[name] = &tracedReader{Reader: db.Store()}
	}
	qt.engines[sparqluo.WCO] = &tracedEngine{Engine: exec.WCOEngine{}, tr: tr}
	qt.engines[sparqluo.BinaryJoin] = &tracedEngine{Engine: exec.BinaryJoinEngine{}, tr: tr}
	return qt
}

func datasetOf(q *query) string { return q.tmpl[:strings.IndexByte(q.tmpl, '/')] }

// tracedExecs is how many times run executes each operation.
const tracedExecs = 4

// run traces one operation and returns what went wrong, if anything.
func (qt *queryTrace) run(id int, o op) (errs []error) {
	db := qt.dbs[datasetOf(o.q)]
	fail := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}

	// native
	sp := qt.tr.begin("native", 0, id)
	if qt.http != nil {
		hsp := qt.tr.begin("http.request", sp, id)
		r, err := queryHTTP(qt.http, o)
		qt.tr.end(hsp)
		fail(err)
		if r.hit {
			qt.hits++
		}
		switch r.status {
		case 503:
			qt.status503++
		case 504:
			qt.status504++
		}
	} else {
		sum, _, err := queryAPI(db, o)
		if err == nil {
			err = o.verify(sum)
		}
		fail(err)
	}
	native := qt.tr.end(sp)
	qt.native = append(qt.native, native)

	// prepared: the plan is built and warmed once per text, as the
	// handler's plan cache would hold it.
	p := qt.prep[o.q]
	if p == nil {
		var err error
		if p, err = db.Prepare(o.q.text); err != nil {
			return append(errs, err)
		}
		for e := range qt.engines {
			if res, err := p.Exec(sparqluo.WithEngine(sparqluo.Engine(e))); err == nil {
				res.Close()
			}
		}
		qt.prep[o.q] = p
	}
	sp = qt.tr.begin("prepared.exec", 0, id)
	res, err := p.Exec(sparqluo.WithEngine(o.eng))
	pe := qt.tr.end(sp)
	if err != nil {
		return append(errs, err)
	}
	var w digestWriter
	sp = qt.tr.begin("results.writejson", 0, id)
	err = res.WriteJSON(&w)
	wj := qt.tr.end(sp)
	if err == nil {
		err = o.verify(w.digest)
	}
	fail(err)
	qt.prepExec = append(qt.prepExec, pe)
	qt.writeJSON = append(qt.writeJSON, wj)
	qt.jsonBytes += w.n
	qt.rows += res.Len()
	if qt.http != nil {
		qt.handlerSelf = append(qt.handlerSelf, native-pe-wj)
	}

	// plain
	t0 := time.Now()
	pres, err := db.Query(o.q.text, sparqluo.WithEngine(o.eng))
	qt.plain += time.Since(t0)
	if err != nil {
		return append(errs, err)
	}
	plainRows := pres.Len()
	pres.Close()

	// pipeline
	rows, err := qt.pipeline(id, o)
	if err == nil && rows != plainRows {
		err = fmt.Errorf("%s: traced pipeline returned %d rows, db.Query %d", o.q.id, rows, plainRows)
	}
	fail(err)
	return errs
}

func (qt *queryTrace) pipeline(id int, o op) (int, error) {
	st := qt.readers[datasetOf(o.q)]
	eng := qt.engines[o.eng]
	eng.op = id
	root := qt.tr.begin("pipeline", 0, id)
	defer func() { qt.piped += qt.tr.end(root) }()

	sp := qt.tr.begin("sparql.parse", root, id)
	q, err := sparql.Parse(o.q.text)
	qt.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = qt.tr.begin("core.build", root, id)
	plan, err := core.BuildPlan(q, st)
	qt.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = qt.tr.begin("core.estimate", root, id)
	eng.parent = sp
	plan.WarmEstimates(eng)
	qt.tr.end(sp)

	sp = qt.tr.begin("core.exec", root, id)
	eng.parent = sp
	res, err := core.ExecPlan(context.Background(), plan, eng, core.Full, core.ExecOptions{})
	qt.tr.end(sp)
	if err != nil {
		return 0, err
	}
	qt.tr.addFirst("core.transform", sp, id, res.TransformTime)
	qt.transformations += res.Transformations
	qt.joinSpace += core.JoinSpace(res.Tree, res.Stats)
	qt.pruned += res.Stats.PrunedBGPs
	qt.pulled += res.Stats.RowsPulled
	return res.Bag.Len(), nil
}

// report turns the recorded spans and counters into per-layer metrics.
func (qt *queryTrace) report(m metrics) {
	self := qt.tr.selfTimes()
	byName := map[string][]time.Duration{}
	selfByName := map[string]time.Duration{}
	for _, s := range qt.tr.spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
		selfByName[s.Name] += self[s.ID]
	}
	sum := func(names ...string) (total time.Duration, n int) {
		for _, name := range names {
			for _, d := range byName[name] {
				total += d
			}
			n += len(byName[name])
		}
		return total, n
	}
	p50 := func(name, span, unit string, conv func(time.Duration) float64) {
		m.set(name, unit, median(durs(byName[span], conv)), len(byName[span]))
	}
	p50("sparql.parse_us_p50", "sparql.parse", "us", us)
	m.count("sparql.parse_calls", float64(len(byName["sparql.parse"])))
	p50("core.build_us_p50", "core.build", "us", us)
	p50("core.estimate_us_p50", "core.estimate", "us", us)
	p50("core.transform_us_p50", "core.transform", "us", us)
	m.count("core.transformations", float64(qt.transformations))
	var evalSelf []float64
	for _, s := range qt.tr.spans {
		if s.Name == "core.exec" {
			evalSelf = append(evalSelf, ms(self[s.ID]))
		}
	}
	m.set("core.eval_self_ms_p50", "ms", median(evalSelf), len(evalSelf))
	m.count("core.join_space", qt.joinSpace)
	m.count("core.pruned_bgps", float64(qt.pruned))
	m.count("core.rows_pulled", float64(qt.pulled))

	wco, nw := sum("exec.wco.evalbgp")
	bin, nb := sum("exec.binary.evalbgp")
	est, ne := sum("exec.wco.estimate", "exec.binary.estimate")
	m.set("exec.wco.evalbgp_ms", "ms", ms(wco), nw)
	m.set("exec.binary.evalbgp_ms", "ms", ms(bin), nb)
	m.count("exec.evalbgp_calls", float64(nw+nb))
	m.count("exec.evalbgp_rows_out", float64(qt.engines[0].rowsOut.Load()+qt.engines[1].rowsOut.Load()))
	m.set("exec.estimate_ms", "ms", ms(est), ne)
	m.count("exec.estimate_calls", float64(ne))

	var calls, ids, triples int64
	for _, r := range qt.readers {
		calls += r.calls.Load()
		ids += r.ids.Load()
		triples += r.triples.Load()
	}
	m.count("store.accessor_calls", float64(calls))
	m.count("store.ids_returned", float64(ids))
	m.count("store.triples_returned", float64(triples))
	m.set("store.rows_examined_per_result", "ratio", float64(ids+triples)/float64(max(qt.rows, 1)), len(qt.native))

	wj, _ := sum("results.writejson")
	m.set("results.writejson_ms_p50", "ms", median(durs(qt.writeJSON, ms)), len(qt.writeJSON))
	m.set("results.json_mb_per_s", "MB/s", float64(qt.jsonBytes)/1e6/wj.Seconds(), len(qt.writeJSON))
	m.set("results.json_bytes", "B", float64(qt.jsonBytes), 1)
	m.set("prepared.exec_us_p50", "us", median(durs(qt.prepExec, us)), len(qt.prepExec))
	if qt.http != nil {
		m.set("http.plan_cache_hit_ratio", "ratio", float64(qt.hits)/float64(len(qt.native)), len(qt.native))
		m.set("http.handler_self_us_p50", "us", median(durs(qt.handlerSelf, us)), len(qt.handlerSelf))
		m.count("http.status_503", float64(qt.status503))
		m.count("http.status_504", float64(qt.status504))
	}
	m.set("trace.overhead_ratio", "ratio", qt.plain.Seconds()/qt.piped.Seconds(), len(qt.native))

	// Where a traced operation's time goes — what shows that a workload
	// loads the layers it was chosen to load. share.cold.* splits the
	// one-shot path (the pipeline plus result encoding): engine calls
	// made while estimating count as planning, so exec_store is BGP
	// evaluation alone. share.http.* splits an HTTP request whose plan
	// the cache held into the handler's own time, the warm
	// Prepared.Exec, and encoding.
	estimate, _ := sum("core.estimate")
	total := qt.piped + wj
	share := func(name string, d, of time.Duration) {
		m.set("share."+name, "ratio", d.Seconds()/of.Seconds(), len(qt.native))
	}
	share("cold.sparql", selfByName["sparql.parse"], total)
	share("cold.core_build_transform", selfByName["core.build"]+selfByName["core.transform"], total)
	share("cold.core_estimate", estimate, total)
	share("cold.core_eval", selfByName["core.exec"], total)
	share("cold.exec_store", selfByName["exec.wco.evalbgp"]+selfByName["exec.binary.evalbgp"], total)
	share("cold.results", wj, total)
	if qt.http != nil {
		native, _ := sum("native")
		pe, _ := sum("prepared.exec")
		share("http.handler", native-pe-wj, native)
		share("http.prepared_exec", pe, native)
		share("http.results", wj, native)
	}
}
