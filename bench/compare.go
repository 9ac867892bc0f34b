package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so the
// numbers match the ones the benchmark's bounds were checked against. A
// single value has no spread.
func quartileSpread(xs []float64) (median, spread float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	median = pct(s, 0.5)
	if n < 2 || median == 0 {
		return median, 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	spread = (quartile(3) - quartile(1)) / median
	if spread < 0 {
		spread = -spread
	}
	return median, spread
}

// verdict judges one metric on one workload: a is the parent's runs, b the
// change's. "worse" means b's median is worse than a's by more than the
// bound. Where either side's own run-to-run spread is wider than the bound
// the medians cannot resolve a difference that small: the row is
// "unresolved" unless every run of one side beats every run of the other.
func verdict(def metricDef, a, b []float64) (string, float64) {
	ma, sa := quartileSpread(a)
	mb, sb := quartileSpread(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worseBy := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if def.Better == "higher" {
		worseBy = -worseBy
		better = func(x, y float64) bool { return x > y }
	}
	every := func(xs, ys []float64) bool { // every x better than every y
		for _, x := range xs {
			for _, y := range ys {
				if !better(x, y) {
					return false
				}
			}
		}
		return true
	}
	wide := sa > def.Bound || sb > def.Bound
	switch {
	case worseBy > def.Bound && (!wide || every(a, b)):
		return "worse", worseBy
	case wide && !every(b, a):
		return "unresolved", worseBy
	}
	return "ok", worseBy
}

func loadEnvelope(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &env, nil
}

// series collects one metric's values per workload, in run order.
func (e *envelope) series(workload, metric string) []float64 {
	var out []float64
	for _, r := range e.Runs {
		if r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns non-zero when any row is worse or either file holds a failed
// run.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadEnvelope(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadEnvelope(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareEnvelopes(a, b, stdout)
}

func compareEnvelopes(a, b *envelope, stdout io.Writer) int {
	status := 0
	for _, side := range []*envelope{a, b} {
		for _, r := range side.Runs {
			if !r.Correct {
				fmt.Fprintf(stdout, "%-18s seed %d: run failed (%d of %d ops)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "spread a", "spread b", "worse by", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, def := range endToEndMetrics {
			va, vb := a.series(wl, def.Name), b.series(wl, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worseBy := verdict(def, va, vb)
			ma, sa := quartileSpread(va)
			mb, sb := quartileSpread(vb)
			fmt.Fprintf(stdout, "%-18s %-20s %14.6g %14.6g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl, def.Name, ma, mb, sa*100, sb*100, worseBy*100, def.Bound*100, v)
			if v == "worse" {
				status = 1
			}
		}
	}
	return status
}
