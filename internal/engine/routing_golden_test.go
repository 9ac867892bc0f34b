package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"vnfopt/internal/fault"
)

// routePassTrace drives a seeded k=4 engine with capacity routing tight
// enough to reject and reroute through six route passes — the initial
// one, four burst-schedule steps (one of which migrates) and the pass an
// edge-switch fault triggers, after which `servable` filters the dead
// rack's flows — and returns every pass's full RoutingReport as JSON.
func routePassTrace(t *testing.T) []byte {
	t.Helper()
	e, sched := newEngineCfg(t, 3, Config{
		Routing: &RoutingConfig{LinkCapacity: 4000, Alpha: 0.5, Classify: true},
	})
	reports := []*RoutingReport{e.RoutingReport()}
	migrated, rejected, rerouted, filtered := false, false, false, false
	step := func(hour int) {
		if _, err := e.Ingest(hourUpdates(sched[hour])); err != nil {
			t.Fatalf("Ingest hour %d: %v", hour, err)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatalf("Step hour %d: %v", hour, err)
		}
		migrated = migrated || res.Migrated
		reports = append(reports, e.RoutingReport())
	}
	step(1)
	step(2)
	// Killing flow 0's edge switch strands its rack: those flows drop out
	// of `servable` and the router is rebased onto the degraded model.
	edge := e.cfg.PPDC.Topo.Graph.Neighbors(e.cfg.Base[0].Src)[0].To
	if _, err := e.ApplyFaults(context.Background(), []fault.Fault{{Kind: fault.Switch, U: edge}}, nil); err != nil {
		t.Fatalf("ApplyFaults: %v", err)
	}
	reports = append(reports, e.RoutingReport())
	step(3)
	step(4)
	for _, rep := range reports {
		if rep == nil {
			t.Fatal("a route pass published no report")
		}
		rejected = rejected || rep.Rejected > 0
		filtered = filtered || len(rep.Decisions) < len(e.cfg.Base)
		for _, d := range rep.Decisions {
			rerouted = rerouted || d.Reroutes > 0
		}
	}
	if !migrated || !rejected || !rerouted || !filtered {
		t.Fatalf("trace lost its coverage: migrated=%v rejected=%v rerouted=%v filtered=%v",
			migrated, rejected, rerouted, filtered)
	}
	out, err := json.MarshalIndent(reports, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestRoutePassGoldenFromParent compares the trace byte for byte with
// testdata/route_pass_golden.json, written by the commit before the
// route pass shared one search per source (per-flow Router.Admit): cost
// bits, reroute counts, reasons, link loads and their order all have to
// survive the batching.
func TestRoutePassGoldenFromParent(t *testing.T) {
	want, err := os.ReadFile("testdata/route_pass_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := routePassTrace(t); !bytes.Equal(got, want) {
		t.Fatalf("route passes differ from the parent-written golden report\n got: %s\nwant: %s", got, want)
	}
}
