// Command benchmark is the repository's benchmark: four named SPARQL-UO
// workloads, each reporting the end-to-end metrics of BENCHMARK.json
// with tracing off, or its per-layer metrics in a traced run. See
// README.md for what each workload loads and why it exists.
//
//	bash benchmark/run.sh --workload analytic_uo --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object the driver
// reads; the full document, with sample counts and the run's
// environment, goes to out/ and, with -record, to a JSON-lines file that
// -agree compares.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"sparqluo"
	"sparqluo/internal/rdf"
)

// config is one run's input.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sc       scale
	outDir   string // result documents, trace files and scratch files
	golden   string // pinned row counts; checked for seed 1 at full scale
}

// report is what a workload hands back: every number it measured, by
// name, and its correctness tally.
type report struct {
	m         metrics
	attempted int
	failed    int
	notes     []string
	rows      map[string]int // summed primed row counts per template
	tmp       string         // scratch directory of this run
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, err.Error())
	}
}

// primed folds a primed query's row count into the per-template sums
// the golden file pins.
func (r *report) primed(q *query, eng sparqluo.Engine) {
	r.rows[q.tmpl] += q.want[eng].rows
}

// loop records a load loop's tally as the end-to-end latency and
// throughput metrics: each is the median over the loop's windows of that
// window's value.
func (r *report) loop(t tally) {
	var p50, p95, rate []float64
	n := 0
	for w, lats := range t.lats {
		if len(lats) == 0 {
			continue
		}
		lat := durs(lats, ms)
		p50 = append(p50, percentile(lat, 50))
		p95 = append(p95, percentile(lat, 95))
		if t.window > 0 {
			rate = append(rate, float64(t.oks[w])/t.window.Seconds())
		}
		n += len(lats)
	}
	qps := t.rate
	if t.window > 0 {
		qps = median(rate)
	}
	r.m.set("qps", "1/s", qps, n)
	r.m.set("lat_p50_ms", "ms", median(p50), n)
	r.m.set("lat_p95_ms", "ms", median(p95), n)
	r.attempted += t.attempted
	r.failed += t.failed
	for _, e := range t.errs {
		if len(r.notes) < 8 {
			r.notes = append(r.notes, e)
		}
	}
}

// env records where a run happened.
type env struct {
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Clients    int        `json:"clients"`
	OpenRates  [3]float64 `json:"open_rates_per_s"`
	Scale      string     `json:"scale"`
}

// result is the full document of one run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`         // the BENCHMARK.json set of this mode
	Extra     map[string]metric `json:"extra,omitempty"` // everything else the run measured
	Rows      map[string]int    `json:"rows"`            // primed row counts per template, summed over variants
	Notes     []string          `json:"notes,omitempty"`
	Env       env               `json:"env"`
}

var workloads = map[string]func(config, *report) error{
	"hot_templates":    runHot,
	"analytic_uo":      runAnalytic,
	"mixed_open":       runMixed,
	"live_ingest_read": runLive,
}

func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown workload %q", cfg.workload)
	}
	if err := checkClients(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rp := &report{m: metrics{}, rows: map[string]int{}, tmp: tmp}
	if err := w(cfg, rp); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", cfg.workload, err)
	}
	if err := checkGolden(cfg, rp); err != nil {
		rp.fail(err)
	}
	rp.m.set("fail_ratio", "ratio", float64(rp.failed)/float64(max(rp.attempted, 1)), rp.attempted)

	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Correct: rp.failed == 0, Attempted: rp.attempted, Failed: rp.failed,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Rows: rp.rows, Notes: rp.notes,
		Env: env{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Clients: maxClients, OpenRates: openRates, Scale: cfg.sc.name,
		},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		mt, ok := rp.m[d.name]
		if !ok {
			if !cfg.trace {
				return nil, fmt.Errorf("benchmark: %s did not measure %s", cfg.workload, d.name)
			}
			mt = metric{Unit: d.unit} // a layer this workload does not reach
		}
		if mt.Unit != d.unit {
			return nil, fmt.Errorf("benchmark: %s reported in %s, declared in %s", d.name, mt.Unit, d.unit)
		}
		res.Metrics[d.name] = mt
	}
	for name, mt := range rp.m {
		if _, ok := res.Metrics[name]; !ok {
			res.Extra[name] = mt
		}
	}
	return res, nil
}

// setup builds one frozen database per generator, sc.setupRepeats times
// over, and keeps the last build. It records setup_s (generate + load +
// freeze, all datasets), the bulk-load rate, and the index footprint.
func setup(cfg config, rp *report, gens ...func() []rdf.Triple) ([]*sparqluo.DB, [][]rdf.Triple, error) {
	var totals, rates, freezes []float64
	var dbs []*sparqluo.DB
	var data [][]rdf.Triple
	for range cfg.sc.setupRepeats {
		// Each build starts from a collected heap, so a build is not
		// charged for collecting its predecessor.
		dbs, data = nil, nil
		runtime.GC()
		t0 := time.Now()
		var loadFreeze, freeze float64
		triples := 0
		for _, gen := range gens {
			ts := gen()
			db, l, f, err := buildDB(ts)
			if err != nil {
				return nil, nil, err
			}
			loadFreeze += l + f
			freeze += f
			triples += db.NumTriples()
			dbs, data = append(dbs, db), append(data, ts)
		}
		totals = append(totals, time.Since(t0).Seconds())
		rates = append(rates, float64(triples)/loadFreeze)
		freezes = append(freezes, freeze)
	}
	var bytes, triples int64
	for _, db := range dbs {
		bytes += db.MemStats().TotalBytes
		triples += int64(db.NumTriples())
	}
	n := cfg.sc.setupRepeats
	rp.m.set("setup_s", "s", median(totals), n)
	// The bulk load is a fixed computation: its fastest repeat is the
	// least disturbed reading.
	rp.m.set("ingest_triples_per_s", "1/s", slices.Max(rates), n)
	rp.m.set("store.freeze_s", "s", median(freezes), n)
	rp.m.set("bytes_per_triple", "B", float64(bytes)/float64(triples), 1)
	rp.m.set("store.index_bytes", "B", float64(bytes), 1)
	return dbs, data, nil
}

// settle hands freed memory back to the operating system. Workloads
// call it once they have dropped the generated triples and the
// discarded builds, right before the measured phase, so that phase's
// resident set is the system's and not the set-up's.
func settle() { debug.FreeOSMemory() }

// sampleOf copies the triples the traced run's micro-kernels need, so
// the full generated slice can be dropped.
func sampleOf(cfg config, ts []rdf.Triple) []rdf.Triple {
	if !cfg.trace {
		return nil
	}
	return append([]rdf.Triple(nil), ts[:min(len(ts), cfg.sc.kernelRows)]...)
}

// golden maps workload → template → summed row count, for seed 1.
type golden map[string]map[string]int

func checkGolden(cfg config, rp *report) error {
	if cfg.golden == "" || cfg.seed != 1 || cfg.sc.name != fullScale.name {
		return nil
	}
	b, err := os.ReadFile(cfg.golden)
	if err != nil {
		return err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return fmt.Errorf("%s: %w", cfg.golden, err)
	}
	want, ok := g[cfg.workload]
	if !ok {
		return fmt.Errorf("%s pins nothing for %s", cfg.golden, cfg.workload)
	}
	for tmpl, rows := range rp.rows {
		if want[tmpl] != rows {
			return fmt.Errorf("golden: %s returned %d rows over its variants, %s pins %d", tmpl, rows, cfg.golden, want[tmpl])
		}
	}
	if len(want) != len(rp.rows) {
		return fmt.Errorf("golden: %d templates ran, %s pins %d", len(rp.rows), cfg.golden, len(want))
	}
	return nil
}

// updateGolden rewrites the pinned row counts of one workload.
func updateGolden(path, workload string, rows map[string]int) error {
	g := golden{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	g[workload] = rows
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine is the object the driver reads from the last line.
func contractLine(res *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for name, m := range res.Metrics {
		ms[name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
}

// printTable writes every metric by name, with unit and sample count.
func printTable(w *os.File, res *result) {
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%v scale=%s nproc=%d GOMAXPROCS=%d %s clients=%d open rates=%v/s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Env.Scale, res.Env.NProc, res.Env.GOMAXPROCS,
		res.Env.GoVersion, res.Env.Clients, res.Env.OpenRates)
	for _, part := range []struct {
		title string
		ms    map[string]metric
	}{{"metrics", res.Metrics}, {"extra", res.Extra}} {
		names := make([]string, 0, len(part.ms))
		for name := range part.ms {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "-- %s\n", part.title)
		for _, name := range names {
			m := part.ms[name]
			fmt.Fprintf(w, "%-34s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  !", n)
	}
}

func main() {
	var cfg config
	var trace int
	var record, agree string
	var update bool
	flag.StringVar(&cfg.workload, "workload", "", "hot_templates, analytic_uo, mixed_open or live_ingest_read")
	flag.Int64Var(&cfg.seed, "seed", 1, "the run's only source of randomness")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced schedule and reports the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for result documents, trace files and scratch files")
	flag.StringVar(&cfg.golden, "golden", filepath.Join("golden", "seed1.json"), "pinned row counts for seed 1")
	flag.StringVar(&record, "record", "", "append the full result document to this JSON-lines file")
	flag.BoolVar(&update, "update-golden", false, "rewrite the golden file's entry for this workload (seed 1)")
	flag.StringVar(&agree, "agree", "", "compare two -record files: -agree A.jsonl B.jsonl")
	flag.Parse()

	if agree != "" {
		if flag.NArg() != 1 {
			fatal(errors.New("usage: -agree A.jsonl B.jsonl"))
		}
		regressed, err := agreeFiles(os.Stdout, filepath.Join("..", "BENCHMARK.json"), agree, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	cfg.trace = trace != 0
	cfg.sc = fullScale
	goldenPath := cfg.golden
	if update {
		cfg.golden = ""
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if update {
		if cfg.seed != 1 {
			fatal(errors.New("benchmark: the golden file pins seed 1"))
		}
		if err := updateGolden(goldenPath, cfg.workload, res.Rows); err != nil {
			fatal(err)
		}
	}
	printTable(os.Stderr, res)
	doc, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(doc, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if record != "" {
		f, err := os.OpenFile(record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		if _, err := f.Write(append(doc, '\n')); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	line, err := contractLine(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
