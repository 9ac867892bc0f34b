package obs

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestNilHandlesAreNoOps pins the package contract: every method on a
// nil registry, handle, or event log is safe.
func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h.Observe(1)
	if h.samples() != 0 || h.sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has state")
	}
	r.GaugeFunc("y", func() float64 { return 1 })
	r.DropLabels(`{a="b"}`)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry wrote exposition")
	}
	var ev *EventLog
	ev.Append("t", "m", nil)
	if ev.Events() != nil || ev.Total() != 0 {
		t.Fatal("nil event log has state")
	}
}

func TestRegistryIdentityAndKinds(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(`req_total{route="/x"}`)
	b := r.Counter(`req_total{route="/x"}`)
	if a != b {
		t.Fatal("same full name returned distinct handles")
	}
	if r.Counter(`req_total{route="/y"}`) == a {
		t.Fatal("distinct label sets shared a handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased handles diverged")
	}

	// DropLabels retires exactly one label block, across kinds; the next
	// lookup under a dropped name is a fresh metric.
	r.Histogram(`lat_seconds{route="/x"}`).Observe(1)
	r.Counter("req_total").Inc()
	r.DropLabels(`{route="/x"}`)
	r.DropLabels("")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, `route="/x"`) ||
		!strings.Contains(out, `req_total{route="/y"} 0`) || !strings.Contains(out, "req_total 1") {
		t.Fatalf("after DropLabels:\n%s", out)
	}
	if c := r.Counter(`req_total{route="/x"}`); c == a || c.Value() != 0 {
		t.Fatal("a dropped name came back with its old handle")
	}

	for _, bad := range []string{"", "2leading", "sp ace", "bad{unclosed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind mismatch accepted")
			}
		}()
		r.Gauge(`req_total{route="/x"}`)
	}()
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("live", func() float64 { return v })
	g := r.Gauge("live")
	if g.Value() != 1.5 {
		t.Fatalf("callback gauge %v", g.Value())
	}
	v = 2.5
	if g.Value() != 2.5 {
		t.Fatal("callback gauge did not track")
	}
	g.Set(9) // no-op on callback-backed gauges
	if g.Value() != 2.5 {
		t.Fatal("Set overrode the callback")
	}
}

// TestHistogramQuantiles: with log10 buckets at 20/decade the bucket
// upper bound is within a factor 10^(1/20) ≈ 1.122 of the true value, so
// quantile estimates must land within ~13% above the exact quantile.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	rng := rand.New(rand.NewSource(42))
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [1e-4, 1e2]: six decades, a realistic latency
		// spread.
		vals[i] = math.Pow(10, -4+6*rng.Float64())
		h.Observe(vals[i])
	}
	if h.samples() != uint64(n) {
		t.Fatalf("count %d", h.samples())
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(h.sum()-sum) > 1e-6*sum {
		t.Fatalf("sum %v, want %v", h.sum(), sum)
	}
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	growth := math.Pow(10, 1.0/histBucketsPerDecade)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := sorted[int(q*float64(n))]
		got := h.Quantile(q)
		if got < exact/growth*0.999 || got > exact*growth*1.001 {
			t.Fatalf("q%v: got %v, exact %v (allowed ratio %v)", q, got, exact, growth)
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := newHistogram()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN()) // dropped
	if h.samples() != 2 {
		t.Fatalf("count %d, want 2 (NaN dropped)", h.samples())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("all-nonpositive median %v", q)
	}
	h.Observe(1e300) // clamps into the top decade
	if q := h.Quantile(1); q <= 0 || math.IsInf(q, 0) {
		t.Fatalf("clamped max quantile %v", q)
	}
	if h.Quantile(math.NaN()) != 0 {
		t.Fatal("NaN quantile")
	}
}

// TestEventLogWraparound: the ring keeps the most recent capacity
// events, oldest first, while Total and Seq keep counting.
func TestEventLogWraparound(t *testing.T) {
	ev := NewEventLog(4)
	for i := 1; i <= 10; i++ {
		ev.Append("tick", "t", map[string]float64{"i": float64(i)})
	}
	got := ev.Events()
	if len(got) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got))
	}
	if ev.Total() != 10 {
		t.Fatalf("total %d, want 10", ev.Total())
	}
	for k, e := range got {
		wantI := float64(7 + k)
		if e.Fields["i"] != wantI || e.Seq != uint64(7+k) {
			t.Fatalf("slot %d: seq %d fields %v, want i=%v", k, e.Seq, e.Fields, wantI)
		}
		if e.Time.IsZero() || e.Type != "tick" {
			t.Fatalf("slot %d: %+v", k, e)
		}
	}
	// Events() returns a copy: mutating it must not corrupt the ring.
	got[0].Type = "mutated"
	if ev.Events()[0].Type != "tick" {
		t.Fatal("Events() exposed ring storage")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{route="/a"}`).Add(3)
	r.Counter(`req_total{route="/b"}`).Add(4)
	r.Gauge("temp").Set(1.5)
	h := r.Histogram(`lat_seconds{x="1"}`)
	h.Observe(0.5)
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"# TYPE lat_seconds summary",
		"# TYPE req_total counter",
		"# TYPE temp gauge",
		`req_total{route="/a"} 3`,
		`req_total{route="/b"} 4`,
		"temp 1.5",
		`lat_seconds_count{x="1"} 2`,
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w+"\n") {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
	if strings.Count(out, "# TYPE req_total") != 1 {
		t.Fatalf("TYPE line repeated per series:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds{x="1",quantile="0.5"}`) {
		t.Fatalf("quantile label not spliced:\n%s", out)
	}
	// The p50 of two observations of 0.5 is 0.5's bucket upper bound.
	q := h.Quantile(0.5)
	if q < 0.5 || q > 0.5*math.Pow(10, 1.0/histBucketsPerDecade)*1.001 {
		t.Fatalf("p50 of {0.5,0.5} = %v", q)
	}
}

// TestConcurrentUse exercises the registry and handles from many
// goroutines; run under -race this is the lock-freedom check.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	ev := NewEventLog(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_seconds")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 0.01)
				r.Gauge("shared").Set(float64(i))
				if i%100 == 0 {
					ev.Append("t", "m", nil)
					var buf bytes.Buffer
					_ = r.WritePrometheus(&buf)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter %d, want 8000", got)
	}
	if got := r.Histogram("shared_seconds").samples(); got != 8000 {
		t.Fatalf("histogram count %d, want 8000", got)
	}
	if ev.Total() != 80 {
		t.Fatalf("events %d, want 80", ev.Total())
	}
}
