package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/wal"
)

// Tests of the sharded control plane itself: the actor/registry
// concurrency surface, the bulk NDJSON endpoint, backpressure, and the
// differential assert that the sharded request path leaves an engine in
// a state bit-identical to driving the engine directly.

// diffSpec is the shared scenario of the differential tests: seeded, so
// the generated workload (and thus every placement decision) is
// reproducible on both paths.
func diffSpec(id string) ScenarioSpec {
	return ScenarioSpec{
		ID:       id,
		Topology: "fat-tree",
		K:        4,
		Flows:    24,
		Seed:     7,
		SFCLen:   3,
		Mu:       1000,
	}
}

// diffUpdates generates the deterministic per-epoch update batches both
// paths replay: a mix of fresh flows and same-epoch overwrites so the
// coalescing accounting is exercised too.
func diffUpdates(epochs, flows int) [][]engine.RateUpdate {
	rng := rand.New(rand.NewSource(99))
	out := make([][]engine.RateUpdate, epochs)
	for e := range out {
		batch := make([]engine.RateUpdate, 0, 40)
		for i := 0; i < 40; i++ {
			batch = append(batch, engine.RateUpdate{
				Flow: rng.Intn(flows),
				Rate: 0.1 + rng.Float64()*9.9,
			})
		}
		out[e] = batch
	}
	return out
}

// canonicalState strips the wall-clock fields (step timings) from a
// state blob; everything else must match bitwise between the sharded
// and the serial path.
func canonicalState(t *testing.T, blob []byte) []byte {
	t.Helper()
	var st engine.State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	st.Metrics.LastEpoch = 0
	st.Metrics.TotalEpoch = 0
	out, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ndjsonBody renders updates as an NDJSON stream, alternating single
// objects and array chunks (both line forms the endpoint accepts), with
// a blank line thrown in.
func ndjsonBody(t *testing.T, updates []engine.RateUpdate) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < len(updates); {
		if i%2 == 0 || i+1 >= len(updates) {
			line, err := json.Marshal(updates[i])
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
			i++
		} else {
			chunk := updates[i:min(i+3, len(updates))]
			line, err := json.Marshal(chunk)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
			i += len(chunk)
		}
		if i == len(updates)/2 {
			buf.WriteByte('\n') // blank lines are skipped
		}
	}
	return buf.Bytes()
}

// postBulk sends an NDJSON stream to the bulk endpoint and decodes the
// ingest response.
func postBulk(t *testing.T, ts *httptest.Server, id string, body []byte, step bool) (ingestResponse, int) {
	t.Helper()
	url := ts.URL + "/v1/scenarios/" + id + "/rates:bulk"
	if step {
		url += "?step=true"
	}
	resp, err := ts.Client().Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ingestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestDifferentialShardedVsSerial replays the same seeded epoch
// schedule through (a) the full sharded HTTP path — actor mailbox,
// NDJSON parsing, batch splitting — and (b) direct serial engine calls,
// and requires the resulting durable states to be bit-identical modulo
// wall-clock timings. This pins the refactor's core claim: sharding
// changed the concurrency structure, not the computation.
func TestDifferentialShardedVsSerial(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()

	const epochs = 6
	spec := diffSpec("diff")
	updates := diffUpdates(epochs, spec.Flows)

	// Serial reference: the engine driven directly, one Ingest + Step
	// per epoch.
	refSpec := diffSpec("diff")
	ref, err := buildEngine(&refSpec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range updates {
		if _, err := ref.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	refBlob, err := ref.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	// Sharded path: even epochs arrive as NDJSON bulk streams (split
	// across both line forms), odd epochs as single /rates calls; both
	// close the epoch in the same request.
	if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for e, batch := range updates {
		if e%2 == 0 {
			if _, code := postBulk(t, ts, "diff", ndjsonBody(t, batch), true); code != http.StatusOK {
				t.Fatalf("epoch %d bulk: %d", e, code)
			}
		} else {
			body := map[string]any{"updates": batch, "step": true}
			if code := do(t, ts, "POST", "/v1/scenarios/diff/rates", body, nil); code != http.StatusOK {
				t.Fatalf("epoch %d rates: %d", e, code)
			}
		}
	}
	var shardState json.RawMessage
	if code := do(t, ts, "GET", "/v1/scenarios/diff/state", nil, &shardState); code != http.StatusOK {
		t.Fatalf("state: %d", code)
	}

	got, want := canonicalState(t, shardState), canonicalState(t, refBlob)
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded state diverged from serial reference\nsharded: %s\nserial:  %s", got, want)
	}
}

// TestBulkAccounting pins the bulk response envelope: totals equal the
// sum over batches, coalesced counts same-epoch overwrites, and the
// step result rides along when requested.
func TestBulkAccounting(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	spec := diffSpec("acct")
	if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}

	// 5 updates over 3 distinct flows: 2 coalesce.
	body := []byte(`{"flow":0,"rate":1}
[{"flow":1,"rate":2},{"flow":2,"rate":3}]
{"flow":0,"rate":4}
{"flow":1,"rate":5}
`)
	res, code := postBulk(t, ts, "acct", body, true)
	if code != http.StatusOK {
		t.Fatalf("bulk: %d", code)
	}
	if res.Accepted != 5 || res.Coalesced != 2 || res.Epoch != 1 {
		t.Fatalf("accounting %+v", res.IngestResult)
	}
	if len(res.Batches) == 0 {
		t.Fatal("no per-batch accounting")
	}
	var accepted, coalesced int
	for _, b := range res.Batches {
		accepted += b.Accepted
		coalesced += b.Coalesced
	}
	if accepted != res.Accepted || coalesced != res.Coalesced {
		t.Fatalf("batch sum %d/%d != totals %d/%d", accepted, coalesced, res.Accepted, res.Coalesced)
	}
	if res.Step == nil || res.Step.Epoch != 1 {
		t.Fatalf("step result missing or wrong: %+v", res.Step)
	}

}

// TestBulkRejectsBadStream: a malformed line aborts with 400 and an
// invalid update inside a well-formed line answers 422; earlier batches
// stay ingested (documented batch-atomic, not request-atomic). The route
// takes NDJSON and says so: a body under any other content type is 400,
// never a 200 that read one JSON value and dropped the rest.
func TestBulkRejectsBadStream(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("bad"), nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	if _, code := postBulk(t, ts, "bad", []byte("{not json}\n"), false); code != http.StatusBadRequest {
		t.Fatalf("malformed line: %d", code)
	}
	if _, code := postBulk(t, ts, "bad", []byte(`{"flow":99999,"rate":1}`+"\n"), false); code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid update: %d", code)
	}
	if _, code := postBulk(t, ts, "missing", []byte(`{"flow":0,"rate":1}`+"\n"), false); code != http.StatusNotFound {
		t.Fatalf("missing scenario: %d", code)
	}

	const (
		lines  = `{"flow":0,"rate":1}` + "\n" + `{"flow":1,"rate":2}` + "\n"
		chunks = `[{"flow":0,"rate":1}]` + "\n" + `[{"flow":1,"rate":2}]` + "\n"
		object = `{"updates":[{"flow":0,"rate":1}]}`
	)
	for _, tc := range []struct {
		name, contentType, body string
		status, accepted        int
	}{
		{"curl default type", "application/x-www-form-urlencoded", lines, http.StatusBadRequest, 0},
		{"no type", "", lines, http.StatusBadRequest, 0},
		{"array chunks as json", "application/json", chunks, http.StatusBadRequest, 0},
		{"rates object with a tail", "application/json", object + " trailing garbage", http.StatusBadRequest, 0},
		{"rates object", "application/json", object, http.StatusBadRequest, 0},
		{"bare array", "application/json", `[{"flow":0,"rate":1}]`, http.StatusBadRequest, 0},
		{"type in capitals", "Application/X-NDJSON", lines, http.StatusOK, 2},
		{"space before the parameter", "application/x-ndjson ; charset=utf-8", lines, http.StatusOK, 2},
		{"unprefixed type", "application/ndjson", chunks, http.StatusOK, 2},
	} {
		req, err := http.NewRequest("POST", ts.URL+"/v1/scenarios/bad/rates:bulk", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.contentType != "" {
			req.Header.Set("Content-Type", tc.contentType)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Accepted int `json:"accepted"`
			Error    struct {
				Code, Message string
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status || out.Accepted != tc.accepted {
			t.Errorf("%s: status %d accepted %d (%v), want %d / %d", tc.name, resp.StatusCode, out.Accepted, err, tc.status, tc.accepted)
		}
		if tc.status == http.StatusBadRequest && (out.Error.Code != "bad_request" ||
			!strings.Contains(out.Error.Message, "application/x-ndjson") || !strings.Contains(out.Error.Message, "/rates")) {
			t.Errorf("%s: refusal %+v does not name the accepted type and the single-call route", tc.name, out.Error)
		}
	}
}

// TestBackpressure429 fills a deliberately tiny mailbox behind a gated
// run loop and checks the discrete-call answer: 429, Retry-After, the
// resource_exhausted envelope, and the rejection counter. After the
// gate lifts the same call succeeds.
func TestBackpressure429(t *testing.T) {
	srv := newServer()
	srv.mailboxCap = 1
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("bp"), nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	sc := srv.get("bp")

	gate, stuck := make(chan struct{}), make(chan struct{})
	if err := sc.actor.Submit(func() { close(stuck); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-stuck
	// The run loop is stuck on the gate; one more command fills the
	// capacity-1 mailbox.
	if err := sc.actor.Submit(func() {}); err != nil {
		t.Fatal(err)
	}

	body := bytes.NewReader([]byte(`{"updates":[{"flow":0,"rate":1}]}`))
	resp, err := ts.Client().Post(ts.URL+"/v1/scenarios/bp/rates", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After header")
	}
	if env.Error.Code != codeResourceExhausted {
		t.Fatalf("error code %q", env.Error.Code)
	}
	if m := promSnapshot(t, ts); m["vnfoptd_mailbox_rejected_total"] < 1 {
		t.Fatalf("rejected counter = %v", m["vnfoptd_mailbox_rejected_total"])
	}

	close(gate)
	// Until the run loop has taken the queued command out of the
	// capacity-1 mailbox, 429 is still the right answer.
	for deadline := time.Now().Add(5 * time.Second); sc.actor.Depth() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if code := do(t, ts, "POST", "/v1/scenarios/bp/rates",
		map[string]any{"updates": []engine.RateUpdate{{Flow: 0, Rate: 1}}}, nil); code != http.StatusOK {
		t.Fatalf("post-gate ingest: %d", code)
	}
}

// TestDeleteWhileMailboxDraining gates a run loop, queues work behind
// the gate, and deletes the scenario. Delete must (a) make the id 404
// immediately for new requests, (b) still run every queued command, and
// (c) only acknowledge once the mailbox is drained.
func TestDeleteWhileMailboxDraining(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("dwd"), nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	sc := srv.get("dwd")

	gate := make(chan struct{})
	var ran sync.WaitGroup
	if err := sc.actor.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	const queued = 5
	for i := 0; i < queued; i++ {
		ran.Add(1)
		if err := sc.actor.Submit(func() { ran.Done() }); err != nil {
			t.Fatal(err)
		}
	}

	type delResp struct {
		Deleted string `json:"deleted"`
		Drained int    `json:"drained"`
	}
	done := make(chan delResp, 1)
	go func() {
		var dr delResp
		if code := do(t, ts, "DELETE", "/v1/scenarios/dwd", nil, &dr); code != http.StatusOK {
			t.Errorf("delete: %d", code)
		}
		done <- dr
	}()

	// The registry entry disappears before the drain finishes: new
	// lookups 404 while the gate still holds the run loop.
	deadline := time.After(5 * time.Second)
	for srv.get("dwd") != nil {
		select {
		case <-deadline:
			t.Fatal("scenario still visible while delete drains")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if code := do(t, ts, "GET", "/v1/scenarios/dwd/placement", nil, nil); code != http.StatusNotFound {
		t.Fatalf("placement during drain: %d, want 404", code)
	}
	select {
	case <-done:
		t.Fatal("delete acknowledged before the mailbox drained")
	default:
	}

	close(gate)
	dr := <-done
	ran.Wait() // every queued command executed
	if dr.Deleted != "dwd" || dr.Drained < queued {
		t.Fatalf("delete response %+v, want drained >= %d", dr, queued)
	}
}

// TestSnapshotDuringDrain checkpoints the daemon while one scenario's
// run loop is wedged behind a gate with commands queued: the round must
// not block on that actor (it queues the checkpoint there and moves on),
// and the wedged scenario must be there after a reboot — checkpointed
// once its run loop gets to it.
func TestSnapshotDuringDrain(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("snap"), nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	if code := do(t, ts, "POST", "/v1/scenarios/snap/step", nil, nil); code != http.StatusOK {
		t.Fatal("step failed")
	}
	sc := srv.get("snap")
	gate := make(chan struct{})
	if err := sc.actor.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sc.actor.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}

	snapDone := make(chan error, 1)
	go func() { snapDone <- srv.checkpointAll() }()
	select {
	case err := <-snapDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("checkpointAll blocked on a wedged actor")
	}
	close(gate)
	srv.closeAll() // drains the mailbox, the queued checkpoint included
	srv.closeWALs()
	if got := logRecords(t, dir, "snap"); len(got) != 1 || got[0] != wal.TypeCreate {
		t.Fatalf("log of the wedged scenario holds %v, want the one checkpoint", got)
	}

	srv2 := bootWAL(t, dir, "")
	if srv2.get("snap") == nil {
		t.Fatal("checkpoint lost the wedged scenario")
	}
	srv2.closeAll()
	srv2.closeWALs()
}

// TestConcurrentCreateDeleteIngest hammers the registry from many
// goroutines — creates, deletes, ingests, bulk streams, list and
// snapshot reads over a small shared id space — and relies on the race
// detector for the memory-model half of the assertion. Every response
// must be one of the codes the API defines for these races.
func TestConcurrentCreateDeleteIngest(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	ok := map[int]bool{
		http.StatusOK: true, http.StatusCreated: true,
		http.StatusNotFound: true, http.StatusConflict: true,
		http.StatusTooManyRequests: true,
	}
	ids := []string{"c0", "c1", "c2", "c3"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			client := ts.Client()
			for i := 0; i < 60; i++ {
				id := ids[rng.Intn(len(ids))]
				var (
					resp *http.Response
					err  error
				)
				switch rng.Intn(6) {
				case 0:
					spec := diffSpec(id)
					body, _ := json.Marshal(spec)
					resp, err = client.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
				case 1:
					req, _ := http.NewRequest("DELETE", ts.URL+"/v1/scenarios/"+id, nil)
					resp, err = client.Do(req)
				case 2:
					resp, err = client.Post(ts.URL+"/v1/scenarios/"+id+"/rates", "application/json",
						strings.NewReader(`{"updates":[{"flow":0,"rate":1}]}`))
				case 3:
					resp, err = client.Post(ts.URL+"/v1/scenarios/"+id+"/rates:bulk", "application/x-ndjson",
						strings.NewReader("{\"flow\":1,\"rate\":2}\n[{\"flow\":2,\"rate\":3}]\n"))
				case 4:
					resp, err = client.Get(ts.URL + "/v1/scenarios/" + id + "/placement")
				case 5:
					resp, err = client.Get(ts.URL + "/v1/scenarios?limit=2&status=active")
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !ok[resp.StatusCode] {
					body := make([]byte, 256)
					n, _ := resp.Body.Read(body)
					t.Errorf("worker %d op on %s: status %d: %s", w, id, resp.StatusCode, body[:n])
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	srv.closeAll()
}

// TestDeleteDropsScenarioSeries: a scenario's series leave /metrics with
// it — one deleted while degraded must not read degraded forever — a
// successor of the same id counts from zero, and a create that fails
// registers nothing.
func TestDeleteDropsScenarioSeries(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	const id, epochs = "short-lived", `vnfopt_engine_epochs_total{scenario="short-lived"}`
	mentions := func() (n int) {
		for name := range promSnapshot(t, ts) {
			if strings.Contains(name, id) {
				n++
			}
		}
		return n
	}

	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec(id), nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	for i := 0; i < 2; i++ {
		if code := do(t, ts, "POST", "/v1/scenarios/"+id+"/step", nil, nil); code != http.StatusOK {
			t.Fatalf("step: %d", code)
		}
	}
	if got := promSnapshot(t, ts)[epochs]; got != 2 {
		t.Fatalf("%s = %v before the delete, want 2", epochs, got)
	}
	if code := do(t, ts, "DELETE", "/v1/scenarios/"+id, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if n := mentions(); n != 0 {
		t.Fatalf("%d series still name the deleted scenario", n)
	}

	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec(id), nil); code != http.StatusCreated {
		t.Fatal("re-create failed")
	}
	if got, ok := promSnapshot(t, ts)[epochs]; !ok || got != 0 {
		t.Fatalf("%s = %v (present %v) on the successor, want 0", epochs, got, ok)
	}
	if code := do(t, ts, "DELETE", "/v1/scenarios/"+id, nil, nil); code != http.StatusOK {
		t.Fatalf("second delete: %d", code)
	}

	bad := diffSpec(id)
	bad.Topology = "torus"
	if code := do(t, ts, "POST", "/v1/scenarios", bad, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("create on an unknown topology: %d", code)
	}
	if n := mentions(); n != 0 {
		t.Fatalf("%d series name a scenario that was never created", n)
	}
}

// TestListPaginationAndFilter covers the listing envelope: limit,
// offset, the status filter, and the 400s for malformed parameters.
func TestListPaginationAndFilter(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	for i := 0; i < 5; i++ {
		spec := diffSpec(fmt.Sprintf("p%d", i))
		if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusCreated {
			t.Fatal("create failed")
		}
	}
	type listResp struct {
		Scenarios []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"scenarios"`
		Total  int `json:"total"`
		Limit  int `json:"limit"`
		Offset int `json:"offset"`
	}

	var all listResp
	if code := do(t, ts, "GET", "/v1/scenarios", nil, &all); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if all.Total != 5 || len(all.Scenarios) != 5 {
		t.Fatalf("full list: %+v", all)
	}

	var page listResp
	if code := do(t, ts, "GET", "/v1/scenarios?limit=2&offset=3", nil, &page); code != http.StatusOK {
		t.Fatal("paged list failed")
	}
	if page.Total != 5 || len(page.Scenarios) != 2 || page.Limit != 2 || page.Offset != 3 {
		t.Fatalf("page: %+v", page)
	}
	if page.Scenarios[0].ID != all.Scenarios[3].ID {
		t.Fatalf("page starts at %s, want %s", page.Scenarios[0].ID, all.Scenarios[3].ID)
	}

	var past listResp
	if code := do(t, ts, "GET", "/v1/scenarios?offset=99", nil, &past); code != http.StatusOK {
		t.Fatal("past-end list failed")
	}
	if past.Total != 5 || len(past.Scenarios) != 0 {
		t.Fatalf("past-end page: %+v", past)
	}

	var active listResp
	if code := do(t, ts, "GET", "/v1/scenarios?status=active", nil, &active); code != http.StatusOK {
		t.Fatal("status filter failed")
	}
	if active.Total != 5 {
		t.Fatalf("active total = %d", active.Total)
	}
	var degraded listResp
	if code := do(t, ts, "GET", "/v1/scenarios?status=degraded", nil, &degraded); code != http.StatusOK {
		t.Fatal("degraded filter failed")
	}
	if degraded.Total != 0 || len(degraded.Scenarios) != 0 {
		t.Fatalf("degraded: %+v", degraded)
	}

	for _, q := range []string{"?limit=-1", "?offset=-2", "?limit=x", "?status=weird"} {
		if code := do(t, ts, "GET", "/v1/scenarios"+q, nil, nil); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", q, code)
		}
	}
}

// TestHealthzBuildInfo: the liveness answer identifies the build.
func TestHealthzBuildInfo(t *testing.T) {
	ts := httptest.NewServer(newServer().handler())
	defer ts.Close()
	var out struct {
		OK     bool              `json:"ok"`
		Uptime string            `json:"uptime"`
		Build  map[string]string `json:"build"`
	}
	if code := do(t, ts, "GET", "/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if !out.OK || out.Uptime == "" {
		t.Fatalf("healthz body: %+v", out)
	}
	if !strings.HasPrefix(out.Build["go"], "go") {
		t.Fatalf("build info missing toolchain: %+v", out.Build)
	}
}

// TestStepReportsQueueDrained: a step submitted behind queued commands
// reports the backlog it drained.
func TestStepReportsQueueDrained(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if code := do(t, ts, "POST", "/v1/scenarios", diffSpec("qd"), nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	sc := srv.get("qd")
	gate := make(chan struct{})
	if err := sc.actor.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sc.actor.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}

	var resp stepResponse
	done := make(chan int, 1)
	go func() { done <- do(t, ts, "POST", "/v1/scenarios/qd/step", nil, &resp) }()
	// Give the handler a moment to capture the depth, then lift the gate.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	if resp.QueueDrained < 3 {
		t.Fatalf("queue_drained = %d, want >= 3", resp.QueueDrained)
	}
	if resp.Epoch != 1 {
		t.Fatalf("epoch = %d", resp.Epoch)
	}
}
