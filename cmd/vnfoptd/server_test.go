package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/sim"
	"vnfopt/internal/topology"
	"vnfopt/internal/wal"
	"vnfopt/internal/workload"
)

// do issues one JSON request against the test server and decodes the
// response into out (when non-nil), failing the test on transport errors.
func do(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// e2eScenario builds the seeded k=4 fat-tree burst scenario shared by the
// daemon run and the offline sim reference: 24 clustered flows, 3-VNF
// chain, μ=1000, and the hour-1 rates as the starting workload.
func e2eScenario(t *testing.T) (*topology.Topology, model.Workload, [][]float64) {
	t.Helper()
	ft := topology.MustFatTree(4, nil)
	rng := rand.New(rand.NewSource(3))
	base := workload.MustPairsClustered(ft, 24, 4, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		base[i].Rate = sched[0][i]
	}
	return ft, base, sched
}

// hostIndex maps host vertex ids to their index in the fabric's host list
// (the addressing PairSpec uses).
func hostIndex(ft *topology.Topology) map[int]int {
	idx := make(map[int]int, len(ft.Hosts))
	for i, h := range ft.Hosts {
		idx[h] = i
	}
	return idx
}

// promSnapshot fetches /metrics and strictly parses the Prometheus text
// exposition into a full-series-name → value map: every non-comment line
// must be `name{labels} value` with a float value, every comment a
// well-formed `# TYPE family type` line.
func promSnapshot(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" {
				t.Fatalf("malformed comment line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "summary":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty exposition")
	}
	return out
}

// TestE2EDaemonMatchesOfflineSim is the acceptance path: create a
// scenario over HTTP, stream the burst schedule as per-epoch rate deltas,
// observe a drift-triggered migration, and check that every epoch's
// placement and reported cost match an offline internal/sim replay of the
// same schedule under the same policy.
func TestE2EDaemonMatchesOfflineSim(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()

	ft, base, sched := e2eScenario(t)
	idx := hostIndex(ft)
	pol := engine.Policy{Hysteresis: 1.1, Cooldown: 1}

	spec := ScenarioSpec{Name: "e2e", SFCLen: 3, Mu: 1e3, Policy: pol}
	for _, f := range base {
		spec.Pairs = append(spec.Pairs, PairSpec{Src: idx[f.Src], Dst: idx[f.Dst], Rate: f.Rate})
	}
	var created struct {
		ID       string           `json:"id"`
		Flows    int              `json:"flows"`
		Migrator string           `json:"migrator"`
		Snapshot *engine.Snapshot `json:"snapshot"`
	}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.Flows != len(base) || created.Migrator != "mPareto" {
		t.Fatalf("created %+v", created)
	}
	epochsKey := `vnfopt_engine_epochs_total{scenario="` + created.ID + `"}`
	promBefore := promSnapshot(t, ts)

	// Stream each hour as one epoch: rates delta + step in one call.
	var daemonSteps []engine.StepResult
	for h, rates := range sched {
		req := ratesRequest{Step: true}
		for i, r := range rates {
			req.Updates = append(req.Updates, engine.RateUpdate{Flow: i, Rate: r})
		}
		var resp struct {
			Accepted int                `json:"accepted"`
			Step     *engine.StepResult `json:"step"`
		}
		path := fmt.Sprintf("/v1/scenarios/%s/rates", created.ID)
		if code := do(t, ts, "POST", path, req, &resp); code != http.StatusOK {
			t.Fatalf("hour %d: rates status %d", h+1, code)
		}
		if resp.Accepted != len(rates) || resp.Step == nil {
			t.Fatalf("hour %d: response %+v", h+1, resp)
		}
		daemonSteps = append(daemonSteps, *resp.Step)
	}

	migrations := 0
	for _, st := range daemonSteps {
		if st.Migrated {
			migrations++
			if !st.Consulted {
				t.Fatal("migration without consulting the migrator")
			}
		}
	}
	if migrations == 0 {
		t.Fatal("no drift-triggered migration observed over the schedule")
	}

	// Offline reference: the batch simulator replaying the same schedule
	// through the same engine policy.
	d := model.MustNew(ft, model.Options{})
	simr, err := sim.New(sim.Config{
		PPDC:     d,
		SFC:      model.NewSFC(3),
		Base:     base,
		Schedule: sched,
		Mu:       1e3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := simr.RunEngine(migration.MPareto{}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Steps) != len(daemonSteps) {
		t.Fatalf("offline %d steps, daemon %d", len(ref.Steps), len(daemonSteps))
	}
	for h, st := range daemonSteps {
		want := ref.Steps[h]
		if math.Abs(st.TotalCost-want.Cost) > 1e-9*math.Max(1, want.Cost) {
			t.Fatalf("hour %d: daemon cost %v != offline %v", h+1, st.TotalCost, want.Cost)
		}
		if st.Moves != want.Moves {
			t.Fatalf("hour %d: daemon moves %d != offline %d", h+1, st.Moves, want.Moves)
		}
	}

	// The placement snapshot the readers see is the offline final
	// placement.
	var snap engine.Snapshot
	path := fmt.Sprintf("/v1/scenarios/%s/placement", created.ID)
	if code := do(t, ts, "GET", path, nil, &snap); code != http.StatusOK {
		t.Fatalf("placement: status %d", code)
	}
	if !snap.Placement.Equal(ref.Final) {
		t.Fatalf("daemon placement %v != offline final %v", snap.Placement, ref.Final)
	}
	if snap.Epoch != len(sched) || snap.Migrations != migrations {
		t.Fatalf("snapshot %+v", snap)
	}

	// The per-scenario JSON route exposes the TOM loop's counters.
	var met struct {
		Metrics engine.Metrics `json:"metrics"`
	}
	if code := do(t, ts, "GET", "/v1/scenarios/"+created.ID+"/metrics", nil, &met); code != http.StatusOK {
		t.Fatal("scenario metrics failed")
	}
	m := met.Metrics
	if m.Epochs != len(sched) || m.Migrations != migrations {
		t.Fatalf("metrics %+v", m)
	}
	if len(m.Trajectory) != len(sched) {
		t.Fatalf("trajectory length %d", len(m.Trajectory))
	}

	// /metrics is Prometheus text exposition; the run above must have
	// advanced the engine, cache, and solver series.
	prom := promSnapshot(t, ts)
	sl := `{scenario="` + created.ID + `"}`
	if got := prom[epochsKey]; got != float64(len(sched)) {
		t.Fatalf("epochs_total %v, want %d", got, len(sched))
	}
	if promBefore[epochsKey] != 0 {
		t.Fatalf("epochs_total %v before any step", promBefore[epochsKey])
	}
	if got := prom[`vnfopt_engine_epoch_seconds_count`+sl]; got != float64(len(sched)) {
		t.Fatalf("epoch_seconds count %v, want %d", got, len(sched))
	}
	if _, ok := prom[`vnfopt_engine_epoch_seconds{scenario="`+created.ID+`",quantile="0.99"}`]; !ok {
		t.Fatal("epoch latency p99 missing from exposition")
	}
	if got := prom[`vnfopt_engine_migrations_total`+sl]; got != float64(migrations) {
		t.Fatalf("migrations_total %v, want %d", got, migrations)
	}
	if got := prom[`vnfopt_cache_rebuilds_total`+sl]; got == 0 {
		t.Fatal("cache rebuild counter did not advance")
	}
	if got := prom[`vnfopt_solver_calls_total{solver="DP"}`]; got < 1 {
		t.Fatalf("solver_calls_total %v, want >= 1", got)
	}
	if got := prom[`vnfopt_migrator_seconds_count{migrator="mPareto"}`]; got < float64(migrations) {
		t.Fatalf("migrator timing count %v, want >= %d", got, migrations)
	}
	ratesRoute := `vnfoptd_requests_total{route="POST /v1/scenarios/{id}/rates",code="200"}`
	if got := prom[ratesRoute] - promBefore[ratesRoute]; got != float64(len(sched)) {
		t.Fatalf("rates request counter advanced by %v, want %d", got, len(sched))
	}
}

// TestStateRoundTripOverHTTP: GET state → create a fresh scenario with it
// → identical snapshot and identical behaviour on the next epoch.
func TestStateRoundTripOverHTTP(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()

	ft, base, sched := e2eScenario(t)
	idx := hostIndex(ft)
	spec := ScenarioSpec{SFCLen: 3, Mu: 1e3, Policy: engine.Policy{Hysteresis: 1.05}}
	for _, f := range base {
		spec.Pairs = append(spec.Pairs, PairSpec{Src: idx[f.Src], Dst: idx[f.Dst], Rate: f.Rate})
	}
	var created struct {
		ID string `json:"id"`
	}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, &created); code != http.StatusCreated {
		t.Fatalf("create failed: %d", code)
	}
	for h := 0; h < 6; h++ {
		req := ratesRequest{Step: true}
		for i, r := range sched[h] {
			req.Updates = append(req.Updates, engine.RateUpdate{Flow: i, Rate: r})
		}
		do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/rates", created.ID), req, nil)
	}

	var st json.RawMessage
	if code := do(t, ts, "GET", fmt.Sprintf("/v1/scenarios/%s/state", created.ID), nil, &st); code != http.StatusOK {
		t.Fatal("state failed")
	}
	resumed := spec
	resumed.State = st
	var created2 struct {
		ID       string           `json:"id"`
		Snapshot *engine.Snapshot `json:"snapshot"`
	}
	if code := do(t, ts, "POST", "/v1/scenarios", resumed, &created2); code != http.StatusCreated {
		t.Fatalf("resume failed: %d", code)
	}
	var orig engine.Snapshot
	if code := do(t, ts, "GET", fmt.Sprintf("/v1/scenarios/%s/placement", created.ID), nil, &orig); code != http.StatusOK {
		t.Fatal("placement failed")
	}
	if created2.Snapshot.Epoch != orig.Epoch || !created2.Snapshot.Placement.Equal(orig.Placement) {
		t.Fatalf("resumed snapshot %+v != original %+v", created2.Snapshot, orig)
	}

	// Both scenarios step identically from here.
	req := ratesRequest{Step: true}
	for i, r := range sched[6] {
		req.Updates = append(req.Updates, engine.RateUpdate{Flow: i, Rate: r})
	}
	var r1, r2 struct {
		Step *engine.StepResult `json:"step"`
	}
	do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/rates", created.ID), req, &r1)
	do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/rates", created2.ID), req, &r2)
	if r1.Step == nil || r2.Step == nil || !r1.Step.Placement.Equal(r2.Step.Placement) {
		t.Fatalf("post-resume step diverged: %+v vs %+v", r1.Step, r2.Step)
	}
	if math.Abs(r1.Step.TotalCost-r2.Step.TotalCost) > 1e-9*math.Max(1, r1.Step.TotalCost) {
		t.Fatalf("post-resume cost %v != %v", r2.Step.TotalCost, r1.Step.TotalCost)
	}
}

// TestDaemonSnapshotFileRoundTrip: checkpoint → fresh server → recovery
// from the checkpoint alone restores scenarios with their ids, epochs,
// and placements.
func TestDaemonSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	_, base, sched := e2eScenario(t)
	ft := topology.MustFatTree(4, nil)
	idx := hostIndex(ft)
	spec := ScenarioSpec{Name: "durable", SFCLen: 3, Mu: 1e3}
	for _, f := range base {
		spec.Pairs = append(spec.Pairs, PairSpec{Src: idx[f.Src], Dst: idx[f.Dst], Rate: f.Rate})
	}
	var created struct {
		ID string `json:"id"`
	}
	do(t, ts, "POST", "/v1/scenarios", spec, &created)
	for h := 0; h < 4; h++ {
		req := ratesRequest{Step: true}
		for i, r := range sched[h] {
			req.Updates = append(req.Updates, engine.RateUpdate{Flow: i, Rate: r})
		}
		do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/rates", created.ID), req, nil)
	}
	var before engine.Snapshot
	do(t, ts, "GET", fmt.Sprintf("/v1/scenarios/%s/placement", created.ID), nil, &before)

	if err := checkpointNow(srv); err != nil {
		t.Fatal(err)
	}
	srv.closeAll()
	srv.closeWALs()
	if got := logRecords(t, dir, created.ID); len(got) != 1 || got[0] != wal.TypeCreate {
		t.Fatalf("log after checkpoint holds %v, want the one create record", got)
	}

	srv2 := bootWAL(t, dir, "")
	defer srv2.closeWALs()
	defer srv2.closeAll()
	ts2 := httptest.NewServer(srv2.handler())
	defer ts2.Close()
	var after engine.Snapshot
	if code := do(t, ts2, "GET", fmt.Sprintf("/v1/scenarios/%s/placement", created.ID), nil, &after); code != http.StatusOK {
		t.Fatalf("restored scenario missing: %d", code)
	}
	if after.Epoch != before.Epoch || !after.Placement.Equal(before.Placement) {
		t.Fatalf("restored %+v != saved %+v", after, before)
	}
	// Ids keep counting past the restored ones.
	var created2 struct {
		ID string `json:"id"`
	}
	do(t, ts2, "POST", "/v1/scenarios", ScenarioSpec{Flows: 8}, &created2)
	if created2.ID == created.ID {
		t.Fatalf("id collision after restore: %s", created2.ID)
	}
	// An empty WAL root and a missing state file to import are a clean boot.
	if n := bootWAL(t, t.TempDir(), dir+"/none.json").scenarios.Len(); n != 0 {
		t.Fatalf("clean boot came up with %d scenarios", n)
	}
}

// TestAPIErrors covers the failure surface: unknown ids, malformed specs,
// bad updates.
func TestAPIErrors(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()

	if code := do(t, ts, "GET", "/v1/scenarios/nope/placement", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}
	if code := do(t, ts, "POST", "/v1/scenarios/nope/step", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id step: %d", code)
	}
	if code := do(t, ts, "DELETE", "/v1/scenarios/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id delete: %d", code)
	}
	if code := do(t, ts, "POST", "/v1/scenarios", map[string]any{"topology": "torus"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad topology: %d", code)
	}
	if code := do(t, ts, "POST", "/v1/scenarios", map[string]any{"bogus_field": 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", code)
	}
	if code := do(t, ts, "POST", "/v1/scenarios", map[string]any{"migrator": "quantum"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad migrator: %d", code)
	}
	if code := do(t, ts, "POST", "/v1/scenarios", map[string]any{"pairs": []map[string]any{{"src": 0, "dst": 999, "rate": 1}}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad pair: %d", code)
	}

	var created struct {
		ID string `json:"id"`
	}
	if code := do(t, ts, "POST", "/v1/scenarios", ScenarioSpec{Flows: 8, Seed: 1}, &created); code != http.StatusCreated {
		t.Fatalf("generated scenario: %d", code)
	}
	path := fmt.Sprintf("/v1/scenarios/%s/rates", created.ID)
	if code := do(t, ts, "POST", path, ratesRequest{Updates: []engine.RateUpdate{{Flow: 99, Rate: 1}}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range flow: %d", code)
	}
	if code := do(t, ts, "POST", path, ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: -1}}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("negative rate: %d", code)
	}
	if code := do(t, ts, "DELETE", "/v1/scenarios/"+created.ID, nil, nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if code := do(t, ts, "GET", "/v1/scenarios/"+created.ID+"/placement", nil, nil); code != http.StatusNotFound {
		t.Fatal("deleted scenario still served")
	}
	if code := do(t, ts, "GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
}

// TestErrorEnvelopeAndConflict pins the uniform error body — every
// failure answers {"error":{"code","message"}} with the documented code
// — and the atomic create path: a duplicate explicit id is a 409
// conflict even though the id was free when the first request started.
func TestErrorEnvelopeAndConflict(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()

	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	check := func(wantStatus int, wantCode, method, path string, body any) {
		t.Helper()
		env.Error.Code, env.Error.Message = "", ""
		if code := do(t, ts, method, path, body, &env); code != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, code, wantStatus)
		}
		if env.Error.Code != wantCode || env.Error.Message == "" {
			t.Fatalf("%s %s: envelope %+v, want code %q", method, path, env, wantCode)
		}
	}
	check(http.StatusNotFound, "not_found", "GET", "/v1/scenarios/nope/events", nil)
	check(http.StatusBadRequest, "bad_request", "POST", "/v1/scenarios", map[string]any{"bogus_field": 1})
	check(http.StatusUnprocessableEntity, "invalid_argument", "POST", "/v1/scenarios", map[string]any{"topology": "torus"})
	check(http.StatusUnprocessableEntity, "invalid_argument", "POST", "/v1/scenarios", map[string]any{"migrator": "layereddp"})
	if !strings.Contains(env.Error.Message, `unknown migrator "layereddp"`) {
		t.Fatalf("retired migrator: message %q", env.Error.Message)
	}

	var created struct {
		ID string `json:"id"`
	}
	spec := ScenarioSpec{ID: "pinned", Flows: 8, Seed: 1}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, &created); code != http.StatusCreated {
		t.Fatalf("explicit-id create: %d", code)
	}
	if created.ID != "pinned" {
		t.Fatalf("id %q, want pinned", created.ID)
	}
	check(http.StatusConflict, "conflict", "POST", "/v1/scenarios", spec)
	// Generated ids skip over live explicit ids rather than colliding.
	var gen struct {
		ID string `json:"id"`
	}
	if code := do(t, ts, "POST", "/v1/scenarios", ScenarioSpec{Flows: 8, Seed: 2}, &gen); code != http.StatusCreated {
		t.Fatalf("generated create: %d", code)
	}
	if gen.ID == created.ID {
		t.Fatalf("generated id collided with %q", created.ID)
	}

	// A body JSON cannot carry is a 500 with the envelope, not a 200
	// status line with nothing behind it.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"cost": math.Inf(1)})
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Error.Code != "internal" {
		t.Fatalf("unencodable body: status %d, body %q (%v)", rec.Code, rec.Body.String(), err)
	}
}

// TestEventsEndpoint: migrations committed by the engine appear in the
// scenario's bounded event ring with monotonically increasing sequence
// numbers and the migration fields.
func TestEventsEndpoint(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()

	ft, base, sched := e2eScenario(t)
	idx := hostIndex(ft)
	spec := ScenarioSpec{SFCLen: 3, Mu: 1e3} // zero policy: consult every epoch
	for _, f := range base {
		spec.Pairs = append(spec.Pairs, PairSpec{Src: idx[f.Src], Dst: idx[f.Dst], Rate: f.Rate})
	}
	var created struct {
		ID string `json:"id"`
	}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	moves := 0
	for _, rates := range sched {
		req := ratesRequest{Step: true}
		for i, r := range rates {
			req.Updates = append(req.Updates, engine.RateUpdate{Flow: i, Rate: r})
		}
		var resp struct {
			Step *engine.StepResult `json:"step"`
		}
		do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/rates", created.ID), req, &resp)
		if resp.Step != nil {
			moves += resp.Step.Moves
		}
	}
	if moves == 0 {
		t.Fatal("schedule produced no migrations; events test is vacuous")
	}

	var got struct {
		Events []struct {
			Seq    uint64             `json:"seq"`
			Type   string             `json:"type"`
			Msg    string             `json:"message"`
			Fields map[string]float64 `json:"fields"`
		} `json:"events"`
		Total uint64 `json:"total"`
	}
	if code := do(t, ts, "GET", fmt.Sprintf("/v1/scenarios/%s/events", created.ID), nil, &got); code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	if len(got.Events) == 0 || got.Total == 0 {
		t.Fatalf("no events recorded (total %d)", got.Total)
	}
	totalMoves := 0.0
	for i, ev := range got.Events {
		if ev.Type != "migration" || ev.Msg == "" {
			t.Fatalf("event %d: %+v", i, ev)
		}
		if i > 0 && ev.Seq <= got.Events[i-1].Seq {
			t.Fatalf("event seq not increasing: %d after %d", ev.Seq, got.Events[i-1].Seq)
		}
		if ev.Fields["moves"] <= 0 || ev.Fields["epoch"] <= 0 {
			t.Fatalf("event %d missing fields: %+v", i, ev.Fields)
		}
		totalMoves += ev.Fields["moves"]
	}
	if totalMoves != float64(moves) {
		t.Fatalf("event moves %v != stepped moves %d", totalMoves, moves)
	}
}

// TestLeafSpineScenario: the daemon serves non-fat-tree fabrics too.
// TestExhaustiveMigratorScenario: the daemon accepts the exact
// Algorithm 6 migrator with a node budget, reports it under its own
// (non-colliding) name, and steps normally.
func TestExhaustiveMigratorScenario(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	var created struct {
		ID       string           `json:"id"`
		Migrator string           `json:"migrator"`
		Snapshot *engine.Snapshot `json:"snapshot"`
	}
	spec := ScenarioSpec{
		Flows: 10, Seed: 3, SFCLen: 3,
		Migrator: "exhaustive", NodeBudget: 50_000,
	}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, &created); code != http.StatusCreated {
		t.Fatalf("exhaustive create: %d", code)
	}
	if created.Migrator != "Exhaustive" {
		t.Fatalf("migrator name %q, want Exhaustive", created.Migrator)
	}
	var res engine.StepResult
	if code := do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/step", created.ID), nil, &res); code != http.StatusOK {
		t.Fatal("step failed")
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch %d", res.Epoch)
	}
}

func TestLeafSpineScenario(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	var created struct {
		ID       string           `json:"id"`
		Snapshot *engine.Snapshot `json:"snapshot"`
	}
	spec := ScenarioSpec{Topology: "leaf-spine", Flows: 10, Seed: 2, SFCLen: 2}
	if code := do(t, ts, "POST", "/v1/scenarios", spec, &created); code != http.StatusCreated {
		t.Fatalf("leaf-spine create: %d", code)
	}
	if len(created.Snapshot.Placement) != 2 {
		t.Fatalf("snapshot %+v", created.Snapshot)
	}
	var res engine.StepResult
	if code := do(t, ts, "POST", fmt.Sprintf("/v1/scenarios/%s/step", created.ID), nil, &res); code != http.StatusOK {
		t.Fatal("step failed")
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch %d", res.Epoch)
	}
}
