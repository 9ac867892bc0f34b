package obs

import (
	"math"
	"sync/atomic"
)

// Histogram bucket layout: log-spaced buckets covering 18 decades
// ([1e-9, 1e9)) at histBucketsPerDecade buckets per decade, giving a
// worst-case relative quantile error of 10^(1/20) − 1 ≈ 12%. Values at
// or below zero land in a dedicated zero bucket; values beyond the top
// decade clamp into the last bucket. The layout is fixed so Observe is
// one float log, one index clamp, and two atomic adds — no allocation,
// no locking, safe for any number of concurrent writers.
const (
	histBucketsPerDecade = 20
	histMinDecade        = -9
	histMaxDecade        = 9
	histBuckets          = (histMaxDecade - histMinDecade) * histBucketsPerDecade
)

// Histogram is a lock-free streaming histogram with quantile estimation.
// The zero value is NOT ready; use newHistogram or Registry.Histogram. A
// nil *Histogram is a disabled handle: Observe no-ops and the accessors
// return zeros.
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	zero    atomic.Uint64 // observations ≤ 0
	buckets [histBuckets]atomic.Uint64
}

// newHistogram returns an empty histogram.
func newHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a positive value to its bucket, clamped to the
// covered range.
func bucketIndex(v float64) int {
	idx := int(math.Floor((math.Log10(v) - histMinDecade) * histBucketsPerDecade))
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketUpper returns the upper bound of bucket idx — the value reported
// for quantiles landing in it.
func bucketUpper(idx int) float64 {
	return math.Pow(10, float64(histMinDecade)+float64(idx+1)/histBucketsPerDecade)
}

// Observe records one sample. NaN samples are dropped; samples ≤ 0 are
// counted (in the zero bucket and the sum) but do not shift positive
// quantiles. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if v <= 0 {
		h.zero.Add(1)
	} else {
		h.buckets[bucketIndex(v)].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// samples returns the number of recorded samples.
func (h *Histogram) samples() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// sum returns the sum of recorded samples.
func (h *Histogram) sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) of the recorded
// samples: the upper bound of the bucket holding the rank-⌈q·count⌉
// sample, accurate to one bucket width (≈12% relative). Returns 0 for an
// empty or nil histogram. Concurrent Observe calls may be partially
// visible; the estimate is still within one bucket of some consistent
// snapshot.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	seen := h.zero.Load()
	if rank <= seen {
		return 0
	}
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if rank <= seen {
			return bucketUpper(i)
		}
	}
	// Samples landed after the count was read; report the top of the
	// highest non-empty bucket.
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			return bucketUpper(i)
		}
	}
	return 0
}
