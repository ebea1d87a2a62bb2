package main

import (
	"bytes"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metric is one reported number. Samples is how many observations it
// summarises (1 for a single reading or an exact count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricDef names a metric of the contract in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is reported by every workload with tracing off. What each
// name measures per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"bytes_per_triple", "B"},
	{"ingest_triples_per_s", "1/s"},
}

// perLayer is reported by the traced run. A workload that does not
// reach a layer reports 0 with 0 samples for that layer's metrics.
var perLayer = []metricDef{
	{"sparql.parse_us_p50", "us"}, {"sparql.parse_calls", "count"},
	{"core.build_us_p50", "us"}, {"core.estimate_us_p50", "us"},
	{"core.transform_us_p50", "us"}, {"core.transformations", "count"},
	{"core.eval_self_ms_p50", "ms"}, {"core.join_space", "count"},
	{"core.pruned_bgps", "count"}, {"core.rows_pulled", "count"},
	{"exec.wco.evalbgp_ms", "ms"}, {"exec.binary.evalbgp_ms", "ms"},
	{"exec.evalbgp_calls", "count"}, {"exec.evalbgp_rows_out", "count"},
	{"exec.estimate_ms", "ms"}, {"exec.estimate_calls", "count"},
	{"store.accessor_calls", "count"}, {"store.ids_returned", "count"},
	{"store.triples_returned", "count"}, {"store.rows_examined_per_result", "ratio"},
	{"store.freeze_s", "s"}, {"store.index_bytes", "B"},
	{"algebra.join_merge_ns_row", "ns"}, {"algebra.join_hash_ns_row", "ns"},
	{"algebra.leftjoin_ns_row", "ns"}, {"algebra.distinct_ns_row", "ns"},
	{"algebra.topk_ns_row", "ns"},
	{"results.writejson_ms_p50", "ms"}, {"results.json_mb_per_s", "MB/s"},
	{"results.json_bytes", "B"},
	{"http.plan_cache_hit_ratio", "ratio"}, {"http.handler_self_us_p50", "us"},
	{"prepared.exec_us_p50", "us"}, {"http.status_503", "count"},
	{"http.status_504", "count"}, {"http.gen_lag_p95_ms", "ms"},
	{"open_p95_ms.r1", "ms"}, {"open_p95_ms.r2", "ms"}, {"open_p95_ms.r3", "ms"},
	{"max_rate_ok", "1/s"},
	{"overlay.insert_batch_us_p50", "us"}, {"overlay.delete_batch_us_p50", "us"},
	{"overlay.compactions", "count"}, {"overlay.compact_ms_total", "ms"},
	{"overlay.read_stall_ms_max", "ms"}, {"overlay.memtable_ops_peak", "count"},
	{"wal.fsyncs", "count"}, {"wal.bytes_written", "B"},
	{"wal.bytes_per_user_byte", "ratio"}, {"wal.append_sync_us_p50", "us"},
	{"wal.replay_s", "s"}, {"wal.segments_retired", "count"},
	{"write_ack_p95_ms", "ms"}, {"recovery_s", "s"}, {"acked_lost", "count"},
	{"snapshot.write_s", "s"}, {"snapshot.open_ms", "ms"},
	{"snapshot.image_bytes_per_triple", "B"}, {"snapshot.bytes_rewritten", "B"},
	{"rdf.decode_triples_per_s", "1/s"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// metrics collects a run's numbers by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// count records an exact count.
func (m metrics) count(name string, v float64) { m.set(name, "count", v, 1) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank percentile of v (p in (0,100]); it
// sorts v in place.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	rank := int(p/100*float64(len(v))+0.999999) - 1
	rank = max(0, min(rank, len(v)-1))
	return v[rank]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// digest identifies one W3C-JSON result document: CRC-32C and length.
// CRC-32C runs at memory speed on amd64/arm64, so digesting a 17 MB
// result inside the timed region costs about a millisecond.
type digest struct {
	crc uint32
	n   int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digestWriter is the sink query results are encoded into.
type digestWriter struct{ digest }

func (w *digestWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.n += int64(len(p))
	return len(p), nil
}

// rssSampler records the largest resident set size seen while it runs.
// The process-lifetime high-water mark would mostly show the dataset
// generator's scratch memory, so the measured phase is sampled instead.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int64 // bytes
	n    int
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if r := residentBytes(); r > s.peak {
				s.peak = r
			}
			s.n++
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// done stops the sampler and returns the peak in MB with the number of
// samples taken.
func (s *rssSampler) done() (float64, int) {
	close(s.stop)
	s.wg.Wait()
	return float64(s.peak) / 1e6, s.n
}

// residentBytes reads the resident set size from /proc/self/statm; it
// returns 0 where that file does not exist.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * int64(os.Getpagesize())
}
