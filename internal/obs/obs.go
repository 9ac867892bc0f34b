// Package obs is the observability layer: an atomic metrics registry
// (counters, gauges, lock-free streaming histograms), Prometheus
// text-format exposition, and a bounded event ring buffer.
//
// The core types in this file and in histogram.go, events.go, and
// prometheus.go depend only on the standard library; instrument.go adds
// ready-made wrappers for the TOP/TOM solver interfaces.
//
// Everything is built around one contract: **a nil handle is a disabled
// handle.** Every method on a nil *Registry, *Counter, *Gauge,
// *Histogram, or *EventLog is a no-op (or returns a zero value), so
// library code can thread metric handles unconditionally and pay exactly
// one nil check when observability is off. Instrumented hot paths should
// resolve their handles once (at construction) rather than looking them
// up by name per operation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil counter).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64. A gauge may instead be backed
// by a callback (see Registry.GaugeFunc), in which case Set/Add are
// no-ops and Value consults the callback.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v (no-op on a nil or callback-backed gauge).
func (g *Gauge) Set(v float64) {
	if g == nil || g.fn != nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil || g.fn != nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind discriminates what a registry slot holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric: the full name (family plus optional
// inline label set) and the typed handle.
type entry struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a concurrency-safe, get-or-create metrics registry. Metric
// names follow the Prometheus data model and may carry an inline label
// set, e.g.
//
//	r.Counter(`vnfoptd_requests_total{route="/healthz",code="200"}`).Inc()
//
// The full string (family + labels) is the identity: two calls with the
// same name return the same handle. A nil *Registry hands out nil
// handles, which no-op — the disabled configuration costs nothing beyond
// the nil checks.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// lookup returns the slot for name, creating it with mk on first use.
// It panics when the same name was previously registered with a
// different kind — that is a programming error, not an operational one.
func (r *Registry) lookup(name string, kind metricKind, mk func(*entry)) *entry {
	if err := checkName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	r.mu.RLock()
	e := r.metrics[name]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		if e = r.metrics[name]; e == nil {
			e = &entry{name: name, kind: kind}
			mk(e)
			r.metrics[name] = e
		}
		r.mu.Unlock()
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, kind))
	}
	return e
}

// Counter returns the counter registered under name, creating it on
// first use. Nil registry → nil (disabled) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registry → nil (disabled) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, func(e *entry) { e.g = &Gauge{} }).g
}

// GaugeFunc registers a callback-backed gauge: the callback is invoked
// at exposition time. Registering the same name again replaces the
// callback. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	e := r.lookup(name, kindGauge, func(e *entry) { e.g = &Gauge{} })
	r.mu.Lock()
	e.g.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it on
// first use. Nil registry → nil (disabled) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, func(e *entry) { e.h = newHistogram() }).h
}

// DropLabels unregisters every metric whose label block is exactly
// labels, braces included (`{scenario="s1"}`), so the owner of a label
// set can retire it: the series leave the exposition, and the next
// get-or-create under one of the names starts from zero. Handles
// resolved earlier keep working but are exported nowhere. No-op on a
// nil registry and for the empty block (the unlabelled metrics belong
// to the process).
func (r *Registry) DropLabels(labels string) {
	if r == nil || labels == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.metrics {
		if _, l := splitName(name); l == labels {
			delete(r.metrics, name)
		}
	}
}

// snapshot returns the registered entries sorted by full name.
func (r *Registry) snapshot() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.metrics))
	for _, e := range r.metrics {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// checkName validates a metric name: a Prometheus-style family
// ([a-zA-Z_:][a-zA-Z0-9_:]*) optionally followed by one balanced
// {label="value",...} block.
func checkName(name string) error {
	fam, labels := splitName(name)
	if fam == "" {
		return fmt.Errorf("empty metric name %q", name)
	}
	for i, ch := range fam {
		ok := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(i > 0 && ch >= '0' && ch <= '9')
		if !ok {
			return fmt.Errorf("invalid metric family %q", fam)
		}
	}
	if labels != "" && (!strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}")) {
		return fmt.Errorf("invalid label block in %q", name)
	}
	return nil
}

// splitName splits a full metric name into family and the raw label
// block (including braces; empty when there are no labels).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}
