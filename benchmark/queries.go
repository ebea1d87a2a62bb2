package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sparqluo"
	"sparqluo/internal/rdf"
)

// The three query workloads. Each builds its data from the seed,
// primes every text once (the untimed first execution whose digest all
// later executions must match), then either measures the end-to-end
// metrics or, in a traced run, walks a fixed operation list through
// queryTrace for the per-layer metrics.

func seconds(cfg config) time.Duration { return time.Duration(cfg.seconds) * time.Second }

func primeAll(rp *report, db *sparqluo.DB, qs []*query, eng sparqluo.Engine) error {
	for _, q := range qs {
		if err := prime(db, q, eng); err != nil {
			return err
		}
		rp.primed(q, eng)
	}
	return nil
}

// traceOps is the traced run shared by the query workloads: the fixed
// operation list through queryTrace, the layer micro-kernels, and the
// span file.
func traceOps(cfg config, rp *report, dbs map[string]*sparqluo.DB, hc *httpClient, ops []op, sample []rdf.Triple) error {
	tr := newTracer()
	qt := newQueryTrace(tr, dbs, hc)
	for i, o := range ops {
		rp.attempted += tracedExecs
		for _, err := range qt.run(i+1, o) {
			rp.fail(err)
		}
	}
	qt.report(rp.m)
	return finishTrace(cfg, rp, tr, dbs["lubm"], sample)
}

// finishTrace runs the layer micro-kernels and writes the span file.
func finishTrace(cfg config, rp *report, tr *tracer, db *sparqluo.DB, sample []rdf.Triple) error {
	algebraKernels(rp.m, cfg.sc.kernelRows)
	if err := rdfKernel(rp.m, sample, cfg.sc.kernelRows); err != nil {
		return err
	}
	if err := walKernel(rp.m, sample, rp.tmp); err != nil {
		return err
	}
	if db != nil {
		if err := snapshotKernel(rp.m, db, rp.tmp); err != nil {
			return err
		}
	}
	return tr.write(fmt.Sprintf("%s/trace-%s.json", cfg.outDir, cfg.workload))
}

// --- hot_templates ---------------------------------------------------

const (
	hotConsts    = 8   // × 6 templates = 48 texts, well inside the 128-plan cache
	hotTracedOps = 480 // fixed length of the traced operation list
)

func runHot(cfg config, rp *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	dbs, data, err := setup(cfg, rp, func() []rdf.Triple { return genLUBM(cfg.sc.lubmUnivs, cfg.seed) })
	if err != nil {
		return err
	}
	db := dbs[0]
	pool := hotPool(pickConsts(rng, lubmDepts(data[0]), hotConsts))
	sample := sampleOf(cfg, data[0])
	data = nil
	if err := primeAll(rp, db, pool, sparqluo.WCO); err != nil {
		return err
	}

	srv, err := serve(sparqluo.NewHandler(db, sparqluo.WithPlanCache(128), sparqluo.WithMaxInFlight(64)))
	if err != nil {
		return err
	}
	defer srv.close()
	hc := newHTTPClient(srv.base, maxClients)
	defer hc.close()
	// Warm-up: every text once over HTTP fills the plan cache and
	// opens the connections.
	for _, q := range pool {
		if _, err := queryHTTP(hc, op{q, sparqluo.WCO}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	if cfg.trace {
		pick := newHotPicker(rng, hotConsts, true)
		ops := make([]op, hotTracedOps)
		for i := range ops {
			ops[i] = op{pool[pick.next()], sparqluo.WCO}
		}
		return traceOps(cfg, rp, map[string]*sparqluo.DB{"lubm": db}, hc, ops, sample)
	}

	pickers := make([]*hotPicker, maxClients)
	for c := range pickers {
		pickers[c] = newHotPicker(rand.New(rand.NewSource(cfg.seed*1000+int64(c))), hotConsts, true)
	}
	settle()
	rss := startRSS()
	t := closedLoop(maxClients, seconds(cfg), func(c, _ int) error {
		_, err := queryHTTP(hc, op{pool[pickers[c].next()], sparqluo.WCO})
		return err
	})
	peak, n := rss.done()
	rp.m.set("peak_rss_mb", "MB", peak, n)
	rp.loop(t)
	return nil
}

// --- analytic_uo -----------------------------------------------------

// analyticVariants is how many constant choices each template cycles
// through; a text recurs every analyticVariants cycles.
const analyticVariants = 3

var (
	// LUBM q1.1 and q1.3 are left out: depending on constant and seed
	// the engine runs either in tens of milliseconds or in half a
	// second (q1.1: 35 ms or 550-950 ms for the same ~27 k rows), so a
	// schedule holding them measures which plan the seed drew.
	analyticLUBM    = []string{"q1.2", "q2.1", "q2.3"}
	analyticDBpedia = []string{"q1.1", "q1.2", "q1.3", "q1.4", "q1.5", "q1.6", "q2.1", "q2.5"}
	bothEngines     = []sparqluo.Engine{sparqluo.WCO, sparqluo.BinaryJoin}
)

// analyticCycles returns, per variant, the 22 operations of one cycle:
// every template on both engines.
func analyticCycles(consts []lubmConst) [][]op {
	cycles := make([][]op, len(consts))
	for v, c := range consts {
		var qs []*query
		for _, id := range analyticLUBM {
			qs = append(qs, lubmQuery(id, v, c))
		}
		for _, id := range analyticDBpedia {
			qs = append(qs, dbpQuery(id, v))
		}
		for _, q := range qs {
			for _, e := range bothEngines {
				cycles[v] = append(cycles[v], op{q, e})
			}
		}
	}
	return cycles
}

func runAnalytic(cfg config, rp *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	dbs, data, err := setup(cfg, rp,
		func() []rdf.Triple { return genLUBM(cfg.sc.lubmUnivs, cfg.seed) },
		func() []rdf.Triple { return genDBpedia(cfg.sc.dbpEntities, cfg.seed) })
	if err != nil {
		return err
	}
	byName := map[string]*sparqluo.DB{"lubm": dbs[0], "dbpedia": dbs[1]}
	cycles := analyticCycles(pickConsts(rng, lubmDepts(data[0]), analyticVariants))
	sample := sampleOf(cfg, data[0])
	data = nil

	// Prime: every (text, engine) once; the engines must agree on the
	// row count of every schedule entry.
	for _, cycle := range cycles {
		for _, o := range cycle {
			if err := prime(byName[datasetOf(o.q)], o.q, o.eng); err != nil {
				return err
			}
		}
		for _, o := range cycle {
			if o.eng != sparqluo.WCO {
				continue
			}
			rp.primed(o.q, o.eng)
			rp.attempted++
			if w, b := o.q.want[sparqluo.WCO].rows, o.q.want[sparqluo.BinaryJoin].rows; w != b {
				rp.fail(fmt.Errorf("%s: wco returned %d rows, binary %d", o.q.id, w, b))
			}
		}
	}

	if cfg.trace {
		return traceOps(cfg, rp, byName, nil, cycles[0], sample)
	}

	// The schedule is cyclic: cycle c runs variant c mod analyticVariants
	// in a seed-shuffled order. Clients take the next entry from one
	// shared position, so together they walk the schedule in order.
	perCycle := len(cycles[0])
	orders := make([][]int, 64)
	for i := range orders {
		orders[i] = rng.Perm(perCycle)
	}
	var next atomic.Int64
	settle()
	rss := startRSS()
	t := closedLoop(maxClients, seconds(cfg), func(_, _ int) error {
		at := int(next.Add(1)) - 1
		c := at / perCycle
		o := cycles[c%analyticVariants][orders[c%len(orders)][at%perCycle]]
		sum, _, err := queryAPI(byName[datasetOf(o.q)], o)
		if err != nil {
			return err
		}
		return o.verify(sum)
	})
	peak, n := rss.done()
	rp.m.set("peak_rss_mb", "MB", peak, n)
	rp.loop(t)
	return nil
}

// --- mixed_open ------------------------------------------------------

// openRates are the three fixed arrival rates of mixed_open, in
// requests per second: 3 %, 7 % and 10 % of the ~890 requests/s at which
// two closed-loop clients saturated this mix when the benchmark was
// defined. Nearer saturation, whether requests queue behind the large
// query is luck, and the 95th percentile differed two- to fourfold
// between seeds (README.md has the measurements).
var openRates = [3]float64{30, 60, 90}

const (
	openLimit   = 250 * time.Millisecond // latency limit on the p95
	mixedConsts = 43                     // × 6 templates = 258 hot texts: 8 × the 32-plan cache
	mixedTraced = 200                    // fixed length of the traced operation list
	mixedLarge  = 8                      // constants for the large q1.2
)

const (
	classHot = iota
	classMedium
	classLarge
)

// mixedBlock returns the operation classes of a block of 100 arrivals:
// 90 hot, 9 medium at seeded positions, and the large query last. Whole
// blocks keep the mix exact at every seed and the large queries a block
// apart, so runs differ in order and timing, not in load.
func mixedBlock(rng *rand.Rand) []int {
	b := make([]int, 100)
	for _, i := range rng.Perm(99)[:9] {
		b[i] = classMedium
	}
	b[99] = classLarge
	return b
}

// mixedDraw draws the operations of the mix. The medium class is one
// text, so that the 95th percentile of a block (its fifth-slowest
// request: the large query, then medium ones) falls inside one cluster
// of like-cost requests; large texts are taken in turn; hot texts are
// drawn as in hot_templates but with every constant equally likely.
type mixedDraw struct {
	rng    *rand.Rand
	hot    []*query
	pick   *hotPicker
	medium *query   // LUBM q2.1: 9 ms, 1,400 rows
	large  []*query // LUBM q1.2: 25-50 ms, 37 k rows, 10 MB of JSON
	block  []int
	larges int // large queries drawn so far
}

func (d *mixedDraw) next() op {
	if len(d.block) == 0 {
		d.block = mixedBlock(d.rng)
	}
	class := d.block[0]
	d.block = d.block[1:]
	switch class {
	case classMedium:
		return op{d.medium, sparqluo.WCO}
	case classLarge:
		d.larges++
		return op{d.large[d.larges%len(d.large)], sparqluo.WCO}
	}
	return op{d.hot[d.pick.next()], sparqluo.WCO}
}

func runMixed(cfg config, rp *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	dbs, data, err := setup(cfg, rp, func() []rdf.Triple { return genLUBM(cfg.sc.lubmUnivs, cfg.seed) })
	if err != nil {
		return err
	}
	db := dbs[0]
	consts := pickConsts(rng, lubmDepts(data[0]), mixedConsts)
	sample := sampleOf(cfg, data[0])
	data = nil
	draw := &mixedDraw{rng: rng, hot: hotPool(consts), pick: newHotPicker(rng, mixedConsts, false),
		medium: lubmQuery("q2.1", 0, lubmConst{})}
	for v, c := range consts[:mixedLarge] {
		draw.large = append(draw.large, lubmQuery("q1.2", v, c))
	}
	all := append(append([]*query{draw.medium}, draw.large...), draw.hot...)
	if err := primeAll(rp, db, all, sparqluo.WCO); err != nil {
		return err
	}

	srv, err := serve(sparqluo.NewHandler(db, sparqluo.WithPlanCache(32), sparqluo.WithMaxInFlight(8),
		sparqluo.WithQueryTimeout(5*time.Second)))
	if err != nil {
		return err
	}
	defer srv.close()
	hc := newHTTPClient(srv.base, maxClients)
	defer hc.close()
	for range maxClients { // warm-up: opens the connections
		if _, err := queryHTTP(hc, op{draw.medium, sparqluo.WCO}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// The open loop runs in both modes: its cache, status and lag
	// counters are the http layer's metrics. The traced run halves it
	// to leave room for the traced operation list.
	d := seconds(cfg)
	if cfg.trace {
		d /= 2
	}
	var sched []arrival
	for s, rate := range openRates {
		for _, due := range poissonArrivals(rng, rate, d/3) {
			sched = append(sched, arrival{due: time.Duration(s)*(d/3) + due, stage: s, op: draw.next()})
		}
	}
	settle()
	rss := startRSS()
	t0 := time.Now()
	results := openLoop(maxClients, sched, func(o op) (reply, error) { return queryHTTP(hc, o) })
	elapsed := time.Since(t0)
	peak, n := rss.done()
	rp.m.set("peak_rss_mb", "MB", peak, n)
	if cfg.trace {
		ops := make([]op, mixedTraced)
		for i := range ops {
			ops[i] = draw.next()
		}
		if err := traceOps(cfg, rp, map[string]*sparqluo.DB{"lubm": db}, hc, ops, sample); err != nil {
			return err
		}
	}
	// Reported last: the http layer's counters come from the open loop,
	// not from the traced list's few requests.
	reportOpen(rp, results, elapsed)
	return nil
}

// reportOpen turns open-loop results into latency at each fixed rate,
// the highest rate that met the limit, and the http layer's counters.
func reportOpen(rp *report, results []openResult, elapsed time.Duration) {
	// One window per block of 100 arrivals: every block holds the same
	// mix, so block percentiles are comparable. A short last block
	// joins the one before it.
	blocks := max(1, len(results)/100)
	t := newTally(blocks, 0)
	var lags []float64
	stage := make([][]float64, len(openRates))
	stageFailed := make([]int, len(openRates))
	hits, s503, s504 := 0, 0, 0
	for i, r := range results {
		t.add(min(i/100, blocks-1), r.lat, r.err)
		if r.err != nil {
			stageFailed[r.stage]++
		}
		stage[r.stage] = append(stage[r.stage], ms(r.lat))
		lags = append(lags, ms(r.lag))
		if r.reply.hit {
			hits++
		}
		switch r.reply.status {
		case 503:
			s503++
		case 504:
			s504++
		}
	}
	t.rate = float64(t.attempted-t.failed) / elapsed.Seconds()
	rp.loop(t)
	rp.m.set("http.gen_lag_p95_ms", "ms", percentile(lags, 95), len(lags))
	rp.m.set("http.plan_cache_hit_ratio", "ratio", float64(hits)/float64(max(len(results), 1)), len(results))
	rp.m.count("http.status_503", float64(s503))
	rp.m.count("http.status_504", float64(s504))
	// A stage meets the limit when its p95 does and so does the p95 of
	// its last quarter: a backlog that is still growing when the stage
	// ends shows there first. A failed request is over any limit.
	maxOK := 0.0
	for s, lat := range stage {
		tail := append([]float64(nil), lat[len(lat)*3/4:]...) // arrival order, before percentile sorts lat
		p95 := percentile(lat, 95)
		rp.m.set(fmt.Sprintf("open_p95_ms.r%d", s+1), "ms", p95, len(lat))
		limit := ms(openLimit)
		if stageFailed[s] == 0 && p95 <= limit && percentile(tail, 95) <= limit {
			maxOK = openRates[s]
		}
	}
	rp.m.set("max_rate_ok", "1/s", maxOK, len(results))
}
