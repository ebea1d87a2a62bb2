package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at smoke scale, untraced and traced,
// and checks that the run is correct and that every metric BENCHMARK.json
// names is emitted under that name with the declared unit and a sample
// count — so the metric names, which later changes cite, cannot drift
// from the file the driver reads.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json names %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	sampled := map[string]bool{} // per-layer metrics some workload reached
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: wl.Name, seed: 1, seconds: 1, trace: trace, sc: smokeScale, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", wl.Name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if !trace {
				for _, d := range bf.EndToEnd {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || m.Samples < 1 || m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s: got %+v (present=%v), want unit %s, a sample count and a value above 0", wl.Name, d.Name, m, ok, d.Unit)
					}
				}
				continue
			}
			for _, d := range bf.PerLayer {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: per-layer metric %s: got %+v (present=%v), want unit %s", wl.Name, d.Name, m, ok, d.Unit)
				}
				if m.Samples > 0 {
					sampled[d.Name] = true
				}
			}
		}
	}
	for _, d := range bf.PerLayer {
		if !sampled[d.Name] {
			t.Errorf("per-layer metric %s was measured by no workload", d.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
