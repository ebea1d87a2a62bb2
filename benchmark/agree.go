package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -agree judges by.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords reads a -record file: one result document per line.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v
// as Python's statistics.quantiles(v, n=4) gives them, which is how the
// driver computes a metric's spread. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// agreeFiles compares two sets of untraced runs, metric by metric and
// workload by workload, against the bounds in BENCHMARK.json — the rule
// later changes are judged by:
//
//	unresolved  either side's spread is wider than the bound
//	regressed   B's median is worse than A's by more than the bound
//	ok          otherwise
//
// It reports whether any row regressed.
func agreeFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(rs []result, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
			sa, sb := spread(va), spread(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %8.4f %8.4f %6.2f  %s\n", wl.Name, m.Name, ma, mb, sa, sb, m.Bound, verdict)
		}
	}
	return regressed, nil
}
