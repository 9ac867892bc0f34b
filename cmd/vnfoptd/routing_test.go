package main

import (
	"net/http/httptest"
	"testing"

	"vnfopt/internal/engine"
)

// TestRoutingEndpointEndToEnd drives the capacity-aware routing surface
// over HTTP: create a scenario with routing enabled, read the admission
// report, step an epoch, and watch the report and the Prometheus gauges
// track it.
func TestRoutingEndpointEndToEnd(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	spec := map[string]any{
		"id":      "cap",
		"k":       4,
		"sfc_len": 2,
		"flows":   12,
		"seed":    7,
		"routing": map[string]any{"link_capacity": 100000, "classify": true},
	}
	var created struct {
		ID       string           `json:"id"`
		Snapshot *engine.Snapshot `json:"snapshot"`
	}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, &created); code != 201 {
		t.Fatalf("create: %d", code)
	}
	if created.Snapshot.Routing == nil {
		t.Fatal("created snapshot has no routing summary")
	}
	if created.Snapshot.Routing.Admitted != 12 || created.Snapshot.Routing.Rejected != 0 {
		t.Fatalf("initial admission %+v, want 12/0", created.Snapshot.Routing)
	}

	var rep struct {
		ID      string                `json:"id"`
		Routing *engine.RoutingReport `json:"routing"`
	}
	if code := do(t, ts, "GET", "/v1/scenarios/cap/routing", nil, &rep); code != 200 {
		t.Fatalf("routing get: %d", code)
	}
	if rep.Routing == nil || rep.Routing.Epoch != 0 {
		t.Fatalf("initial report %+v", rep.Routing)
	}
	if len(rep.Routing.Decisions) != 12 {
		t.Fatalf("%d decisions, want 12", len(rep.Routing.Decisions))
	}
	if len(rep.Routing.Links) == 0 || rep.Routing.MaxUtilization <= 0 {
		t.Fatalf("no link utilization in report: %+v", rep.Routing)
	}

	var step engine.StepResult
	if code := do(t, ts, "POST", "/v1/scenarios/cap/step", nil, &step); code != 200 {
		t.Fatalf("step: %d", code)
	}
	if step.Routing == nil {
		t.Fatal("step result has no routing summary")
	}
	if code := do(t, ts, "GET", "/v1/scenarios/cap/routing", nil, &rep); code != 200 {
		t.Fatalf("routing get: %d", code)
	}
	if rep.Routing.Epoch != 1 {
		t.Fatalf("report epoch %d after step, want 1", rep.Routing.Epoch)
	}

	prom := promSnapshot(t, ts)
	if got := prom[`vnfopt_sfcroute_admitted{scenario="cap"}`]; got != 12 {
		t.Fatalf("admitted gauge %v, want 12", got)
	}
	if got := prom[`vnfopt_link_utilization{scenario="cap"}`]; got != rep.Routing.MaxUtilization {
		t.Fatalf("utilization gauge %v, report says %v", got, rep.Routing.MaxUtilization)
	}
	if _, ok := prom[`vnfopt_sfcroute_rejected{scenario="cap"}`]; !ok {
		t.Fatal("rejected gauge not exported")
	}
}

// TestRoutingEndpointRejections pins the over-capacity path over HTTP: a
// fabric provisioned far below the offered load must reject flows and
// say why.
func TestRoutingEndpointRejections(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	spec := map[string]any{
		"id":      "tight",
		"k":       4,
		"sfc_len": 2,
		"pairs": []map[string]any{
			{"src": 0, "dst": 8, "rate": 90},
			{"src": 1, "dst": 9, "rate": 90},
			{"src": 2, "dst": 10, "rate": 90},
			{"src": 3, "dst": 11, "rate": 90},
		},
		"routing": map[string]any{"link_capacity": 100, "classify": true},
	}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != 201 {
		t.Fatalf("create: %d", code)
	}
	var rep struct {
		Routing *engine.RoutingReport `json:"routing"`
	}
	if code := do(t, ts, "GET", "/v1/scenarios/tight/routing", nil, &rep); code != 200 {
		t.Fatalf("routing get: %d", code)
	}
	if rep.Routing.Rejected == 0 {
		t.Fatalf("no rejections at 3.6× overload: %+v", rep.Routing)
	}
	if len(rep.Routing.RejectReasons) == 0 {
		t.Fatal("rejections carry no reasons")
	}
	for _, d := range rep.Routing.Decisions {
		if !d.Admitted && d.Reason == "" {
			t.Fatalf("rejected flow %d has empty reason", d.Flow)
		}
	}
}

// TestRoutingEndpointDisabled: scenarios without spec.routing 404 on the
// routing resource, and a bad routing config fails scenario creation.
func TestRoutingEndpointDisabled(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	if code := do(t, ts, "POST", "/v1/scenarios", map[string]any{"id": "plain", "flows": 4}, nil); code != 201 {
		t.Fatalf("create: %d", code)
	}
	if code := do(t, ts, "GET", "/v1/scenarios/plain/routing", nil, nil); code != 404 {
		t.Fatalf("routing on plain scenario: %d, want 404", code)
	}
	if code := do(t, ts, "GET", "/v1/scenarios/ghost/routing", nil, nil); code != 404 {
		t.Fatalf("routing on missing scenario: %d, want 404", code)
	}
	for _, routing := range []map[string]any{
		{"link_capacity": -5},
		{"link_capacity": 100, "saturation_threshold": -0.1},
		{"link_capacity": 100, "saturation_threshold": 1.5},
	} {
		bad := map[string]any{"id": "bad", "routing": routing}
		if code := do(t, ts, "POST", "/v1/scenarios", bad, nil); code != 422 {
			t.Fatalf("routing %v accepted: %d, want 422", routing, code)
		}
	}
}
