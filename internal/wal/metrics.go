package wal

import (
	"time"

	"vnfopt/internal/obs"
)

// Metrics is the log's observability surface, shared by every scenario
// log the daemon opens (the operational signal is the aggregate, and
// per-scenario series would multiply cardinality by the fleet size).
// A nil *Metrics disables everything, following the obs contract.
type Metrics struct {
	appendSeconds *obs.Histogram
	appendedBytes *obs.Counter
	records       *obs.Counter
	syncs         *obs.Counter
	replayed      *obs.Counter
	truncated     *obs.Counter
	compacted     *obs.Counter
	segments      *obs.Gauge
	opens         *obs.Counter
}

// NewMetrics registers the vnfopt_wal_* family on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		appendSeconds: r.Histogram("vnfopt_wal_append_seconds"),
		appendedBytes: r.Counter("vnfopt_wal_appended_bytes_total"),
		records:       r.Counter("vnfopt_wal_records_total"),
		syncs:         r.Counter("vnfopt_wal_fsyncs_total"),
		replayed:      r.Counter("vnfopt_wal_replayed_records_total"),
		truncated:     r.Counter("vnfopt_wal_truncated_tails_total"),
		compacted:     r.Counter("vnfopt_wal_compacted_segments_total"),
		segments:      r.Gauge("vnfopt_wal_segments"),
		opens:         r.Counter("vnfopt_wal_opens_total"),
	}
}

func (m *Metrics) observeAppend(bytes int, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.appendSeconds.Observe(elapsed.Seconds())
	m.appendedBytes.Add(int64(bytes))
	m.records.Inc()
}

func (m *Metrics) observeSync() {
	if m == nil {
		return
	}
	m.syncs.Inc()
}

func (m *Metrics) observeReplay(n int) {
	if m == nil {
		return
	}
	m.replayed.Add(int64(n))
}

func (m *Metrics) observeOpen(segments, truncatedTails int) {
	if m == nil {
		return
	}
	m.opens.Inc()
	m.segments.Add(float64(segments))
	m.truncated.Add(int64(truncatedTails))
}

func (m *Metrics) observeSegments(delta int) {
	if m == nil {
		return
	}
	m.segments.Add(float64(delta))
}

func (m *Metrics) observeCompact(n int) {
	if m == nil {
		return
	}
	m.compacted.Add(int64(n))
}
