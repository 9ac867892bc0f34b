package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/obs"
	"vnfopt/internal/topology"
)

// TestFaultInjectionEndToEnd is the acceptance path for the resilience
// surface: kill the switch hosting a VNF through POST /faults, observe
// the repair migration in the response, the event ring, and /metrics,
// watch /readyz flip to 503, then heal and watch it recover.
func TestFaultInjectionEndToEnd(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var created struct {
		ID       string          `json:"id"`
		Snapshot engine.Snapshot `json:"snapshot"`
	}
	do(t, ts, "POST", "/v1/scenarios", ScenarioSpec{Name: "chaos", Flows: 24, Seed: 5}, &created)
	if code := do(t, ts, "GET", "/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz before faults: %d", code)
	}

	victim := created.Snapshot.Placement[0]
	var res engine.FaultResult
	code := do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/faults", created.ID),
		faultsRequest{Inject: []fault.Fault{{Kind: fault.Switch, U: victim}}}, &res)
	if code != http.StatusOK {
		t.Fatalf("inject: %d", code)
	}
	if !res.Degraded || res.Repair == nil || res.Repair.Moves < 1 {
		t.Fatalf("killing a hosting switch must repair-migrate: %+v", res)
	}

	var snap engine.Snapshot
	do(t, ts, "GET", fmt.Sprintf("/v1/scenarios/%s/placement", created.ID), nil, &snap)
	if !snap.Degraded || snap.ActiveFaults != 1 {
		t.Fatalf("snapshot not degraded: %+v", snap)
	}
	for _, s := range snap.Placement {
		if s == victim {
			t.Fatalf("placement still on dead switch %d", victim)
		}
	}

	// Readiness reflects degraded mode with the scenario id.
	var ready struct {
		Ready    bool     `json:"ready"`
		Degraded []string `json:"degraded"`
	}
	if code := do(t, ts, "GET", "/readyz", nil, &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while degraded: %d", code)
	}
	if ready.Ready || len(ready.Degraded) != 1 || ready.Degraded[0] != created.ID {
		t.Fatalf("readyz body: %+v", ready)
	}

	// The repair is visible in the event ring…
	var events struct {
		Events []obs.Event `json:"events"`
	}
	do(t, ts, "GET", fmt.Sprintf("/v1/scenarios/%s/events", created.ID), nil, &events)
	saw := map[string]bool{}
	for _, ev := range events.Events {
		saw[ev.Type] = true
	}
	if !saw["fault_injected"] || !saw["repair"] {
		t.Fatalf("events missing fault_injected/repair: %v", saw)
	}

	// …and in the Prometheus exposition.
	prom := promSnapshot(t, ts)
	label := fmt.Sprintf("{scenario=%q}", created.ID)
	if prom["vnfopt_engine_degraded"+label] != 1 {
		t.Fatalf("degraded gauge: %v", prom["vnfopt_engine_degraded"+label])
	}
	if prom["vnfopt_engine_repairs_total"+label] != 1 {
		t.Fatalf("repairs counter: %v", prom["vnfopt_engine_repairs_total"+label])
	}

	// GET /faults reports the active set and the unserved flows.
	var fstate struct {
		Active   []fault.Fault        `json:"active"`
		Degraded bool                 `json:"degraded"`
		Unserved []fault.UnservedFlow `json:"unserved"`
	}
	do(t, ts, "GET", fmt.Sprintf("/v1/scenarios/%s/faults", created.ID), nil, &fstate)
	if !fstate.Degraded || len(fstate.Active) != 1 || fstate.Active[0].U != victim {
		t.Fatalf("faults state: %+v", fstate)
	}

	// Heal: readiness recovers.
	code = do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/faults", created.ID),
		faultsRequest{Heal: []fault.Fault{{Kind: fault.Switch, U: victim}}}, &res)
	if code != http.StatusOK || res.Degraded {
		t.Fatalf("heal: code=%d res=%+v", code, res)
	}
	if code := do(t, ts, "GET", "/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz after heal: %d", code)
	}
	if prom := promSnapshot(t, ts); prom["vnfopt_engine_degraded"+label] != 0 {
		t.Fatal("degraded gauge not cleared after heal")
	}
}

func TestFaultsEndpointErrors(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var created struct {
		ID string `json:"id"`
	}
	do(t, ts, "POST", "/v1/scenarios", ScenarioSpec{Flows: 8, SFCLen: 3}, &created)
	path := fmt.Sprintf("/v1/scenarios/%s/faults", created.ID)

	var env errorEnvelope
	// Unknown scenario.
	if code := do(t, ts, "POST", "/v1/scenarios/nope/faults", faultsRequest{}, &env); code != http.StatusNotFound {
		t.Fatalf("unknown scenario: %d", code)
	}
	// Invalid fault.
	if code := do(t, ts, "POST", path, faultsRequest{Inject: []fault.Fault{{Kind: fault.Switch, U: -1}}}, &env); code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid fault: %d (%+v)", 0, env)
	}
	// Healing an inactive fault.
	if code := do(t, ts, "POST", path, faultsRequest{Heal: []fault.Fault{{Kind: fault.Switch, U: 0}}}, &env); code != http.StatusUnprocessableEntity {
		t.Fatalf("heal inactive: %+v", env)
	}
	// Infeasible transition: kill every switch → 503 unavailable, state
	// untouched. The default spec is a k=4 fat tree, so its switch list
	// is reproducible here.
	var kill []fault.Fault
	for _, s := range topology.MustFatTree(4, nil).Switches {
		kill = append(kill, fault.Fault{Kind: fault.Switch, U: s})
	}
	if code := do(t, ts, "POST", path, faultsRequest{Inject: kill}, &env); code != http.StatusServiceUnavailable {
		t.Fatalf("infeasible inject: %+v", env)
	}
	if env.Error.Code != codeUnavailable {
		t.Fatalf("error code %q, want unavailable", env.Error.Code)
	}
	var fstate struct {
		Active []fault.Fault `json:"active"`
	}
	do(t, ts, "GET", path, nil, &fstate)
	if len(fstate.Active) != 0 {
		t.Fatalf("rejected transition left faults active: %v", fstate.Active)
	}
}

// TestRequestBodyBounded checks the MaxBytesReader guard: a body past the
// limit is rejected as a bad request instead of being buffered.
func TestRequestBodyBounded(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	huge := bytes.Repeat([]byte("a"), maxBodyBytes+1024)
	resp, err := ts.Client().Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
	}
}

// TestDegradeFaultAPI drives the degrade action through the HTTP
// surface: inject with a factor, observe the weight-delta metrics and
// active set (factor echoed), heal naming only the link, and reject
// malformed factors with 422.
func TestDegradeFaultAPI(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var created struct {
		ID string `json:"id"`
	}
	do(t, ts, "POST", "/v1/scenarios", ScenarioSpec{Name: "soft", Flows: 16, Seed: 3}, &created)
	path := fmt.Sprintf("/v1/scenarios/%s/faults", created.ID)

	// The default spec is a k=4 fat tree; vertex 0 is a switch with
	// links. Find one of its links from the topology for a stable target.
	topo := topology.MustFatTree(4, nil)
	u := topo.Switches[0]
	v := topo.Graph.Neighbors(u)[0].To

	var res engine.FaultResult
	code := do(t, ts, "POST", path,
		faultsRequest{Inject: []fault.Fault{{Kind: fault.Degrade, U: u, V: v, Factor: 4}}}, &res)
	if code != http.StatusOK {
		t.Fatalf("degrade inject: %d", code)
	}
	if !res.Degraded || res.Injected != 1 || len(res.Unserved) != 0 {
		t.Fatalf("degrade transition: %+v", res)
	}

	// Active set echoes the factor.
	var fstate struct {
		Active []fault.Fault `json:"active"`
	}
	do(t, ts, "GET", path, nil, &fstate)
	if len(fstate.Active) != 1 || fstate.Active[0].Kind != fault.Degrade || fstate.Active[0].Factor != 4 {
		t.Fatalf("active set: %+v", fstate.Active)
	}

	// The transition ran the weight-delta APSP path, visible in the
	// process-wide exposition.
	prom := promSnapshot(t, ts)
	if prom["vnfopt_apsp_weight_deltas"] < 1 {
		t.Fatalf("vnfopt_apsp_weight_deltas = %v, want >= 1", prom["vnfopt_apsp_weight_deltas"])
	}

	// Heal names the link only; no factor needed.
	code = do(t, ts, "POST", path,
		faultsRequest{Heal: []fault.Fault{{Kind: fault.Degrade, U: u, V: v}}}, &res)
	if code != http.StatusOK || res.Degraded || res.Healed != 1 {
		t.Fatalf("degrade heal: code=%d res=%+v", code, res)
	}

	// Bad factor → 422, nothing applied.
	var env errorEnvelope
	if code := do(t, ts, "POST", path,
		faultsRequest{Inject: []fault.Fault{{Kind: fault.Degrade, U: u, V: v, Factor: -2}}}, &env); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad factor: %d", code)
	}
	do(t, ts, "GET", path, nil, &fstate)
	if len(fstate.Active) != 0 {
		t.Fatalf("rejected degrade left faults active: %v", fstate.Active)
	}
}
