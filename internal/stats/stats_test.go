package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestStdDev(t *testing.T) {
	// Sample stddev of {2,4,4,4,5,5,7,9} is ≈2.138.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if sd := stdDev(xs); math.Abs(sd-2.13809) > 1e-4 {
		t.Fatalf("stddev = %v", sd)
	}
	if stdDev([]float64{5}) != 0 || stdDev(nil) != 0 {
		t.Fatal("degenerate stddev should be 0")
	}
}

func TestStdDevConstantSample(t *testing.T) {
	if sd := stdDev([]float64{3, 3, 3, 3}); sd != 0 {
		t.Fatalf("constant sample stddev = %v", sd)
	}
}

func TestTValue95(t *testing.T) {
	if v := tValue95(19); v != 2.093 { // paper: 20 runs -> df 19
		t.Fatalf("t(19) = %v, want 2.093", v)
	}
	if v := tValue95(1); v != 12.706 {
		t.Fatalf("t(1) = %v", v)
	}
	if v := tValue95(100); v != 1.960 {
		t.Fatalf("t(100) = %v", v)
	}
	if v := tValue95(22); v != tCritical95[20] {
		t.Fatalf("t(22) = %v, want table value for df=20", v)
	}
	if !math.IsNaN(tValue95(0)) {
		t.Fatal("t(0) should be NaN")
	}
}

func TestSummarize20Runs(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i) // mean 9.5
	}
	s := Summarize(xs)
	if s.N != 20 || s.Mean != 9.5 {
		t.Fatalf("summary = %+v", s)
	}
	want := 2.093 * stdDev(xs) / math.Sqrt(20)
	if math.Abs(s.CI95Half-want) > 1e-9 {
		t.Fatalf("CI half = %v, want %v", s.CI95Half, want)
	}
	if !strings.Contains(s.String(), "± ") || !strings.Contains(s.String(), "n=20") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestSummarizeSinglePoint(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.CI95Half != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
		{0.1, 14}, {0.99, 49.6},
	} {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-point quantile = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("degenerate quantiles should be NaN")
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		finite := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				finite = append(finite, x)
			}
		}
		if len(finite) == 0 {
			return true
		}
		lo, hi := finite[0], finite[0]
		for _, x := range finite {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := Mean(finite)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
