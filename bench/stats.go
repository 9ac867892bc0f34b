package main

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"

	"vnfopt/internal/stats"
)

// msSorted converts nanosecond samples to ascending milliseconds.
func msSorted(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// pct is stats.Quantile with 0 for an empty sample, so a workload that
// never issued an op kind reports 0 instead of NaN.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.Quantile(sorted, q)
}

// highestPercentile picks the highest of p50, p90, p99, p99.9 and p99.99
// that still has at least ten samples beyond it: a p99 of 300 samples
// rests on three values and is noise, so the tail is reported only as far
// out as the sample supports. Fewer than 100 samples support nothing past
// the median.
func highestPercentile(n int) float64 {
	best := 0.5
	for _, oneIn := range []int{10, 100, 1000, 10000} { // p90 leaves 1 sample in 10 beyond it, …
		if n >= 10*oneIn {
			best = 1 - 1/float64(oneIn)
		}
	}
	return best
}

// promFamilies parses Prometheus text exposition into one number per
// family: samples that differ only in labels are summed (the daemon
// labels engine series per scenario and request series per route/code,
// and the benchmark wants the process-wide total), and samples carrying a
// quantile label are skipped because a sum of quantiles means nothing.
// A label filter such as `route="POST /v1/scenarios"` keeps only samples
// whose label block contains it; the result is keyed "family|filter".
func promFamilies(r io.Reader, filters map[string][]string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last space-separated field; label values may
		// themselves contain spaces (route="POST /v1/…").
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:cut], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if strings.Contains(labels, `quantile="`) {
			continue
		}
		out[name] += v
		for _, f := range filters[name] {
			if strings.Contains(labels, f) {
				out[name+"|"+f] += v
			}
		}
	}
	return out, sc.Err()
}
