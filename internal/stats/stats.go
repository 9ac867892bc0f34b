// Package stats provides the small statistics toolkit the experiment
// harness uses to report results the way the paper does: each data point is
// an average of repeated runs with a 95% confidence interval.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stdDev returns the sample (n-1) standard deviation; 0 for fewer than two
// points.
func stdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// tCritical95 holds two-sided 95% Student-t critical values by degrees of
// freedom for small samples; larger samples fall back to the normal 1.960.
var tCritical95 = map[int]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
	11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
	16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
	25: 2.060, 30: 2.042,
}

// tValue95 returns the two-sided 95% critical value for df degrees of
// freedom: the largest tabulated df not exceeding the request, or the
// normal-approximation 1.960 beyond the table.
func tValue95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t, ok := tCritical95[df]; ok {
		return t
	}
	if df > 30 {
		return 1.960
	}
	largest := 0
	for d := range tCritical95 {
		if d <= df && d > largest {
			largest = d
		}
	}
	return tCritical95[largest]
}

// Summary is a mean with its 95% confidence half-width, as plotted in the
// paper ("average of 20 runs with a 95% confidence interval").
type Summary struct {
	N        int
	Mean     float64
	stdDev   float64
	CI95Half float64
}

// Summarize computes the Summary of a sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	s := Summary{N: n, Mean: Mean(xs), stdDev: stdDev(xs)}
	if n >= 2 {
		s.CI95Half = tValue95(n-1) * s.stdDev / math.Sqrt(float64(n))
	}
	return s
}

// String renders "mean ± half (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d)", s.Mean, s.CI95Half, s.N)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (the same R-7 rule as
// numpy.percentile). xs must be sorted ascending; NaN for an empty
// sample or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}
