package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads at a tiny scale through the whole
// harness — daemon subprocess, crash recovery, oracle, traced replay —
// and requires every named metric to be emitted once, finite and with its
// unit, and no op to fail. With -short only the in-process half runs.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	cfg := &runConfig{outDir: out, procs: 2, seconds: 1, trace: true}
	if !testing.Short() {
		root, err := repoRoot()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.bin, err = buildDaemon(root, out); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sz := smokeSizes[name]
			if testing.Short() {
				wl, err := generate(name, 1, sz)
				if err != nil {
					t.Fatal(err)
				}
				m := make(map[string]float64)
				if err := tracedLayers(cfg, wl, m); err != nil {
					t.Fatal(err)
				}
				if m["client.trace_ops"] == 0 || m["engine.new_s"] == 0 {
					t.Fatalf("traced replay recorded nothing: %v", m)
				}
				return
			}
			res, err := runWorkload(cfg, name, 1, sz)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMetrics(res, true); err != nil {
				t.Error(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			// A run is bounded by op count, so a second run of the seed sends
			// the daemon the same commands and every count repeats exactly.
			again, err := runWorkload(cfg, name, 1, sz)
			if err != nil {
				t.Fatal(err)
			}
			if again.Attempted != res.Attempted {
				t.Errorf("attempted %d, then %d", res.Attempted, again.Attempted)
			}
			for _, k := range []string{"cost_per_rate", "wal.records", "wal.bytes", "engine.epochs", "engine.updates", "engine.migrations", "graph.apsp_deltas"} {
				if res.Metrics[k] != again.Metrics[k] {
					t.Errorf("%s: %v, then %v: not repeatable", k, res.Metrics[k], again.Metrics[k])
				}
			}
			for _, traced := range []bool{false, true} {
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(resultLine(res, traced)), &line); err != nil {
					t.Fatal(err)
				}
				defs := endToEndMetrics
				if traced {
					defs = perLayerMetrics
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics printed, %d defined", traced, len(line.Metrics), len(defs))
				}
				for _, def := range defs {
					if got, ok := line.Metrics[def.Name]; !ok || got.Unit != def.Unit || math.IsNaN(got.Value) {
						t.Errorf("traced=%v: metric %s printed as %+v (present %v), want unit %q", traced, def.Name, got, ok, def.Unit)
					}
				}
				if !line.Correct || line.Attempted < 1 {
					t.Errorf("result line %+v", line)
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if left, _ := filepath.Glob(filepath.Join(out, "run-*")); len(left) > 0 {
				t.Errorf("daemon directories left behind: %v", left)
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the names, units, directions
// and bounds the harness prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Seconds   int      `json:"run_seconds"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Seconds != defaultSeconds {
		t.Errorf("run_seconds %d, but -seconds defaults to %d", spec.Seconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, harness runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %+v, harness has %q: %q", i, w, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, harness prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: listed %+v, harness prints %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	seen := make(map[string]bool)
	for _, def := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if seen[def.Name] {
			t.Errorf("metric name %s used twice", def.Name)
		}
		seen[def.Name] = true
	}
}

func TestGenerateFromSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, smokeSizes[name])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, smokeSizes[name])
		c, _ := generate(name, 8, smokeSizes[name])
		flat := func(wl *workload) []byte {
			var buf bytes.Buffer
			for i := range wl.scenarios {
				s, _ := json.Marshal(&wl.scenarios[i])
				buf.Write(s)
			}
			for _, ops := range append(wl.clients, wl.bulk) {
				for i := range ops {
					buf.Write(ops[i].req)
				}
			}
			return buf.Bytes()
		}
		if !bytes.Equal(flat(a), flat(b)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(flat(a), flat(c)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v (needs ten samples beyond it)", tc.n, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "consult", Start: 10, End: 30, Parent: 0},
		{Name: "apsp", Start: 20, End: 50, Parent: 0},   // overlaps consult: merged, not counted twice
		{Name: "route", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "inner", Start: 12, End: 18, Parent: 1},  // a grandchild is the child's business
	}
	total, self := spanTimes(spans)
	if total["step"] != 100 || self["step"] != 50 {
		t.Errorf("step: total %d self %d, want 100 and 50", total["step"], self["step"])
	}
	if self["consult"] != 14 || self["inner"] != 6 || self["apsp"] != 30 {
		t.Errorf("self times %v", self)
	}

	tr := newTracer(true)
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.leaf("hook", 0)
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("tracer parents: %+v", tr.spans)
	}
	var off *tracer
	off.begin("x")
	off.end() // a nil tracer records nothing and does not panic
}

func TestPromFamilies(t *testing.T) {
	text := `# TYPE vnfopt_engine_epoch_seconds summary
vnfopt_engine_epoch_seconds{scenario="a",quantile="0.5"} 9
vnfopt_engine_epoch_seconds_sum{scenario="a"} 1.5
vnfopt_engine_epoch_seconds_count{scenario="a"} 3
vnfopt_engine_epoch_seconds_sum{scenario="b"} 0.25
vnfopt_engine_epoch_seconds_count{scenario="b"} 1
vnfoptd_request_seconds_sum{route="POST /v1/scenarios"} 2
vnfoptd_request_seconds_sum{route="POST /v1/scenarios/{id}/rates"} 4
vnfoptd_request_seconds_sum{route="POST /v1/scenarios/{id}/rates:bulk"} 8
vnfopt_wal_records_total 17
`
	got, err := promFamilies(strings.NewReader(text), routeFilters)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"vnfopt_engine_epoch_seconds_sum":                                        1.75,
		"vnfopt_engine_epoch_seconds_count":                                      4,
		"vnfopt_wal_records_total":                                               17,
		"vnfoptd_request_seconds_sum":                                            14,
		`vnfoptd_request_seconds_sum|route="POST /v1/scenarios"`:                 2,
		`vnfoptd_request_seconds_sum|route="POST /v1/scenarios/{id}/rates"`:      4,
		`vnfoptd_request_seconds_sum|route="POST /v1/scenarios/{id}/rates:bulk"`: 8,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if _, ok := got["vnfopt_engine_epoch_seconds"]; ok {
		t.Error("quantile samples must not be summed")
	}
}

func TestCompare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	med, spread := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if med != 5.5 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, %v; want 5.5, 1", med, spread)
	}
	lower := metricDef{Name: "react_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "reacts_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100.5}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, "ok"},
		{"slower beyond the bound", lower, tight, []float64{120, 121, 119, 120, 122}, "worse"},
		{"slower within the bound", lower, tight, []float64{105, 106, 104, 105, 105}, "ok"},
		{"less throughput", higher, tight, []float64{80, 81, 79, 80, 80}, "worse"},
		{"more throughput", higher, tight, []float64{120, 121, 119, 120, 120}, "ok"},
		{"too noisy to tell", lower, []float64{60, 100, 140, 80, 120}, []float64{70, 110, 150, 90, 130}, "unresolved"},
		{"noisy but every run better", lower, []float64{60, 100, 140, 80, 120}, []float64{10, 20, 30, 15, 25}, "ok"},
	} {
		if got, _ := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
