package engine

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"vnfopt/internal/obs"
)

// workLine is one line of testdata/work_ledger.json: the work one layer
// of one in-process twin does over a fixed run, in units that are a
// function of fabric, seed and commands alone — never of time.
type workLine struct {
	Twin  string           `json:"twin"`
	Layer string           `json:"layer"`
	Work  map[string]int64 `json:"work"`
}

// workMeters measures each ledger line: keyed by twin, then layer.
var workMeters = map[string]map[string]func(t *testing.T) map[string]int64{
	"flash-crowd": {"route_pass": flashCrowdRoutePassWork},
}

// flashCrowdRoutePassWork runs flashCrowdEngine's route passes — the
// pass New runs, then one cycle of its ops — and counts them, their
// searches and the fabric vertices those settled.
func flashCrowdRoutePassWork(t *testing.T) map[string]int64 {
	reg := obs.NewRegistry()
	e, ops := flashCrowdEngine(t, NewObserver(reg, obs.NewEventLog(16), "crowd"))
	for _, u := range ops {
		if _, err := e.Ingest(u); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]int64{
		"passes":   int64(histogramCount(t, reg, `vnfopt_sfcroute_pass_seconds_count{scenario="crowd"}`)),
		"searches": int64(reg.Counter(`vnfopt_sfcroute_searches_total{scenario="crowd"}`).Value()),
		"settled":  int64(reg.Counter(`vnfopt_sfcroute_settled_total{scenario="crowd"}`).Value()),
	}
}

// TestWorkLedger pins every line of testdata/work_ledger.json exactly,
// and requires a line for every meter. A change of work fails here with
// the measured line, which replaces the ledger's when the change is
// meant; CHANGES.md then names the line and why it moved.
func TestWorkLedger(t *testing.T) {
	raw, err := os.ReadFile("testdata/work_ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger []workLine
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatalf("work_ledger.json: %v", err)
	}
	seen := make(map[[2]string]bool)
	for _, want := range ledger {
		key := [2]string{want.Twin, want.Layer}
		meter := workMeters[want.Twin][want.Layer]
		switch {
		case seen[key]:
			t.Fatalf("ledger line %s/%s repeated", want.Twin, want.Layer)
		case meter == nil:
			t.Fatalf("ledger line %s/%s has no meter", want.Twin, want.Layer)
		}
		seen[key] = true
		got := workLine{Twin: want.Twin, Layer: want.Layer, Work: meter(t)}
		if !reflect.DeepEqual(got, want) {
			line, _ := json.Marshal(got)
			t.Errorf("%s/%s work moved; measured line:\n%s", want.Twin, want.Layer, line)
		}
	}
	for twin, layers := range workMeters {
		for layer := range layers {
			if !seen[[2]string{twin, layer}] {
				t.Errorf("meter %s/%s has no ledger line", twin, layer)
			}
		}
	}
}
