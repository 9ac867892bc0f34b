package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/fault"
	"vnfopt/internal/migration"
	"vnfopt/internal/topology"
	"vnfopt/internal/wal"
)

// Tests of the command pipeline: every logged mutation is one command
// kind, its codec round-trips, and a log written by live requests
// replays to the state those requests left — for every kind, because
// live and replay share one apply.

// commandSamples is one populated command per kind.
func commandSamples() []command {
	return []command{
		&createCmd{id: "c1", spec: &ScenarioSpec{
			ID: "c1", Name: "sample", K: 4, SFCLen: 3, Mu: 10, Migrator: "nomigration",
			Pairs: []PairSpec{{Src: 0, Dst: 5, Rate: 2.5}, {Src: 3, Dst: 12, Rate: 0.75}},
		}},
		&ingestCmd{updates: []engine.RateUpdate{{Flow: 0, Rate: 1.5}, {Flow: 7, Rate: 0}, {Flow: 7, Rate: 1e308}}},
		&stepCmd{},
		&faultsCmd{
			inject: []fault.Fault{{Kind: fault.Switch, U: 9}, {Kind: fault.Degrade, U: 3, V: 11, Factor: 4}},
			heal:   []fault.Fault{{Kind: fault.Link, U: 2, V: 10}},
		},
	}
}

// TestCommandCodecCoversEveryType walks the whole wal.Type space: every
// type the log layer names is either the one non-command (the anchor
// older builds wrote) or has a decoder that inverts its command's
// encode. A record type added without a command fails here.
func TestCommandCodecCoversEveryType(t *testing.T) {
	samples := make(map[wal.Type]command)
	for _, c := range commandSamples() {
		samples[c.walType()] = c
	}
	for n := 0; n < 256; n++ {
		typ := wal.Type(n)
		if strings.HasPrefix(typ.String(), "type(") {
			if _, err := decodeCommand(typ, nil); err == nil {
				t.Errorf("%v: decoded a type the log layer does not name", typ)
			}
			continue
		}
		if typ == wal.TypeAnchor {
			continue
		}
		c, ok := samples[typ]
		if !ok {
			t.Errorf("%v: no command for this record type", typ)
			continue
		}
		payload, err := c.encode()
		if err != nil {
			t.Errorf("%v: encode: %v", typ, err)
			continue
		}
		back, err := decodeCommand(typ, payload)
		if err != nil {
			t.Errorf("%v: no decoder for its own encoding: %v", typ, err)
			continue
		}
		if !reflect.DeepEqual(back, c) {
			t.Errorf("%v: decode(encode(c)) = %+v, want %+v", typ, back, c)
		}
	}
}

// get serves one GET through the route table and returns status + body.
func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// driveMixedSchedule creates spec on the server behind ts and sends it
// every kind of mutating request, accepted and refused: ingest,
// ingest+step in one call, NDJSON bulk with and without a step, a switch
// fault, a link degrade, their heal, requests the engine rejects (422)
// and a step that fails (500). It returns the most exact-search
// expansions any one request spent (0 under a migrator that does not
// search). after, when non-nil, runs behind every request, named.
func driveMixedSchedule(t *testing.T, srv *server, ts *httptest.Server, spec ScenarioSpec, after func(what string)) (consult int64) {
	t.Helper()
	last := migration.SearchExpansions()
	want := func(what string, code, wantCode int) {
		t.Helper()
		now := migration.SearchExpansions()
		consult, last = max(consult, now-last), now
		if code != wantCode {
			t.Fatalf("%s: HTTP %d, want %d", what, code, wantCode)
		}
		if after != nil {
			after(what)
		}
	}
	want("create", do(t, ts, "POST", "/v1/scenarios", spec, nil), http.StatusCreated)
	base := "/v1/scenarios/" + spec.ID
	flows := srv.get(spec.ID).eng.Flows()
	all := func(scale float64) []engine.RateUpdate {
		ups := make([]engine.RateUpdate, flows)
		for i := range ups {
			ups[i] = engine.RateUpdate{Flow: i, Rate: scale * float64(1+i%7)}
		}
		return ups
	}
	rates := func(step bool, ups ...engine.RateUpdate) ratesRequest {
		return ratesRequest{Updates: ups, Step: step}
	}

	want("ingest", do(t, ts, "POST", base+"/rates", rates(false, engine.RateUpdate{Flow: 0, Rate: 40}, engine.RateUpdate{Flow: 3, Rate: 0.3}), nil), http.StatusOK)
	want("step", do(t, ts, "POST", base+"/step", nil, nil), http.StatusOK)
	want("ingest+step", do(t, ts, "POST", base+"/rates", rates(true, engine.RateUpdate{Flow: 5, Rate: 90}, engine.RateUpdate{Flow: 5, Rate: 75.25}), nil), http.StatusOK)
	want("refused ingest", do(t, ts, "POST", base+"/rates", rates(true, engine.RateUpdate{Flow: flows, Rate: 1}), nil), http.StatusUnprocessableEntity)
	_, code := postBulk(t, ts, spec.ID, ndjsonBody(t, all(3)), true)
	want("bulk+step", code, http.StatusOK)
	_, code = postBulk(t, ts, spec.ID, ndjsonBody(t, all(1.1)[:flows/2]), false)
	want("bulk", code, http.StatusOK)

	victim := srv.get(spec.ID).eng.Snapshot().Placement[0]
	want("inject", do(t, ts, "POST", base+"/faults", faultsRequest{Inject: []fault.Fault{{Kind: fault.Switch, U: victim}}}, nil), http.StatusOK)
	want("step degraded", do(t, ts, "POST", base+"/step", nil, nil), http.StatusOK)
	topo := topology.MustFatTree(spec.K, nil)
	u := srv.get(spec.ID).eng.Snapshot().Placement[1]
	v := topo.Graph.Neighbors(u)[0].To
	want("degrade", do(t, ts, "POST", base+"/faults", faultsRequest{Inject: []fault.Fault{{Kind: fault.Degrade, U: u, V: v, Factor: 4}}}, nil), http.StatusOK)
	// Refused by apply, not by validate — so it is in the log, and replay
	// has to refuse it again.
	want("refused heal", do(t, ts, "POST", base+"/faults", faultsRequest{Heal: []fault.Fault{{Kind: fault.Link, U: u, V: v}}}, nil), http.StatusUnprocessableEntity)
	want("ingest+step degraded", do(t, ts, "POST", base+"/rates", rates(true, engine.RateUpdate{Flow: 2, Rate: 33.3}), nil), http.StatusOK)
	want("heal", do(t, ts, "POST", base+"/faults", faultsRequest{Heal: []fault.Fault{{Kind: fault.Switch, U: victim}, {Kind: fault.Degrade, U: u, V: v}}}, nil), http.StatusOK)

	// A rate whose cost overflows float64 leaves no finite C_a to decide
	// on: the step fails, deterministically and under every migrator,
	// after folding the pending rates. Re-sending the whole rate vector
	// rebuilds the cost cache and the engine carries on.
	want("failing ingest+step", do(t, ts, "POST", base+"/rates", rates(true, engine.RateUpdate{Flow: 1, Rate: 1e308}), nil), http.StatusInternalServerError)
	want("failing step", do(t, ts, "POST", base+"/step", nil, nil), http.StatusInternalServerError)
	want("recovering ingest+step", do(t, ts, "POST", base+"/rates", ratesRequest{Updates: all(2), Step: true}, nil), http.StatusOK)
	return consult
}

// TestLiveEqualsReplay sends the mixed schedule to server A, then boots
// server B from nothing but A's log and demands the same GET /state and
// GET /routing bytes (wall-clock timings aside). The routed case runs
// over capacity, where admission reroutes and rejects: replay is only
// identical there because the router breaks overflow ties
// deterministically. The exhaustive case runs Algorithm 6 under a node
// budget that cuts a consult short: replay is only identical there
// because the one search stops at the same node every time. The interval
// case is the plain scenario logged under group commit (-wal-sync
// interval): most appends are acknowledged without an fsync of their own.
func TestLiveEqualsReplay(t *testing.T) {
	routed := diffSpec("routed")
	routed.Routing = &engine.RoutingConfig{LinkCapacity: 60, Alpha: 1, Classify: true}
	exhaustive := diffSpec("exhaustive")
	// An 8-VNF chain: at the default 3 every consult is closed at the
	// root by the kernel's bound and no search reaches the budget.
	exhaustive.Migrator, exhaustive.NodeBudget, exhaustive.SFCLen = "exhaustive", 5, 8
	always := wal.Options{Policy: wal.SyncAlways}
	groupCommit := wal.Options{Policy: wal.SyncInterval, SyncEvery: 20 * time.Millisecond}
	for _, tc := range []struct {
		spec ScenarioSpec
		opts wal.Options
	}{
		{diffSpec("plain"), always}, {routed, always}, {exhaustive, always},
		{diffSpec("interval"), groupCommit},
	} {
		spec := tc.spec
		t.Run(spec.ID, func(t *testing.T) {
			dir := t.TempDir()
			a := newWALServer(failfs.OS, dir)
			a.walOpts = tc.opts
			ts := httptest.NewServer(a.handler())
			consult := driveMixedSchedule(t, a, ts, spec, nil)
			ts.Close()
			// A search that runs out of budget counts the node it stopped at.
			if spec.NodeBudget > 0 && consult <= int64(spec.NodeBudget) {
				t.Fatalf("no consult reached the node budget %d: at most %d expansions in one request", spec.NodeBudget, consult)
			}

			statePath := "/v1/scenarios/" + spec.ID + "/state"
			routingPath := "/v1/scenarios/" + spec.ID + "/routing"
			_, wantState := get(t, a.handler(), statePath)
			routingCode, wantRouting := get(t, a.handler(), routingPath)
			if spec.Routing != nil {
				var body struct {
					Routing engine.RoutingReport `json:"routing"`
				}
				if err := json.Unmarshal(wantRouting, &body); err != nil {
					t.Fatal(err)
				}
				rerouted := 0
				for _, d := range body.Routing.Decisions {
					if d.Reroutes > 0 {
						rerouted++
					}
				}
				if body.Routing.Rejected == 0 || rerouted == 0 {
					t.Fatalf("routed case is not overloaded: %d rejected, %d rerouted", body.Routing.Rejected, rerouted)
				}
			}
			a.closeAll()
			a.closeWALs()

			// The schedule must have put every command kind in the log.
			logged := make(map[wal.Type]int)
			for _, typ := range logRecords(t, dir, spec.ID) {
				logged[typ]++
			}
			for _, c := range commandSamples() {
				if logged[c.walType()] == 0 {
					t.Fatalf("schedule logged no %v record: %v", c.walType(), logged)
				}
			}

			b := bootWAL(t, dir, "")
			defer b.closeWALs()
			defer b.closeAll()
			_, gotState := get(t, b.handler(), statePath)
			if got, want := canonicalState(t, gotState), canonicalState(t, wantState); !bytes.Equal(got, want) {
				t.Fatalf("replayed /state diverges\n got: %s\nwant: %s", got, want)
			}
			if code, got := get(t, b.handler(), routingPath); code != routingCode || !bytes.Equal(got, wantRouting) {
				t.Fatalf("replayed /routing diverges (HTTP %d vs %d)\n got: %s\nwant: %s", code, routingCode, got, wantRouting)
			}
		})
	}
}

// TestCheckpointedReplayEqualsLive: the same demand with checkpoints in
// the log — a checkpoint round behind every request of the schedule,
// wherever that falls: behind an un-stepped ingest, a refused command, a
// failed step. After each request a daemon booted from the log as it
// stands (the last checkpoint taken plus what was appended since) serves
// the /state and /routing bytes the live one does. Then server B boots
// from A's final checkpoint alone, C from B's log — that checkpoint plus
// the commands B took after it. Under congestion pricing (alpha > 0) that
// only holds because a checkpoint carries the loads that priced the last
// routing pass.
func TestCheckpointedReplayEqualsLive(t *testing.T) {
	for _, alpha := range []float64{0, 1} {
		t.Run(fmt.Sprintf("alpha=%v", alpha), func(t *testing.T) {
			spec := diffSpec("ckpt")
			spec.Routing = &engine.RoutingConfig{LinkCapacity: 60, Alpha: alpha, Classify: true}
			dir := t.TempDir()
			served := func(srv *server) (state, routing []byte) {
				t.Helper()
				_, state = get(t, srv.handler(), "/v1/scenarios/ckpt/state")
				_, routing = get(t, srv.handler(), "/v1/scenarios/ckpt/routing")
				return canonicalState(t, state), routing
			}
			kill := func(srv *server) {
				srv.closeAll()
				srv.closeWALs()
			}

			a := newWALServer(failfs.OS, dir)
			ts := httptest.NewServer(a.handler())
			deferred := 0
			driveMixedSchedule(t, a, ts, spec, func(what string) {
				t.Helper()
				// Recovery may write (tail repair), so it runs on a copy.
				at := t.TempDir()
				copyTree(t, dir, at)
				b := bootWAL(t, at, "")
				wantState, wantRouting := served(a)
				if state, routing := served(b); !bytes.Equal(state, wantState) || !bytes.Equal(routing, wantRouting) {
					t.Fatalf("boot behind %q diverges\n got: %s\n      %s\nwant: %s\n      %s", what, state, routing, wantState, wantRouting)
				}
				kill(b)
				if err := checkpointNow(a); err != nil {
					t.Fatalf("checkpoint behind %q: %v", what, err)
				}
				if a.get("ckpt").owed {
					deferred++
				}
			})
			ts.Close()
			// The un-stepped ingest, the un-stepped bulk and the two failed
			// steps each leave the engine between epochs.
			if deferred < 4 {
				t.Fatalf("%d checkpoint rounds were put off to the next epoch boundary, want >= 4", deferred)
			}
			wantState, wantRouting := served(a)
			kill(a)
			if got := logRecords(t, dir, "ckpt"); len(got) != 1 || got[0] != wal.TypeCreate {
				t.Fatalf("log after checkpoint holds %v, want the one create record", got)
			}

			b := bootWAL(t, dir, "")
			if state, routing := served(b); !bytes.Equal(state, wantState) || !bytes.Equal(routing, wantRouting) {
				t.Fatalf("boot from the checkpoint diverges\n got: %s\n      %s\nwant: %s\n      %s", state, routing, wantState, wantRouting)
			}
			victim := b.get("ckpt").eng.Snapshot().Placement[2]
			if code := post(t, b.handler(), "POST", "/v1/scenarios/ckpt/faults", faultsRequest{Inject: []fault.Fault{{Kind: fault.Switch, U: victim}}}); code != http.StatusOK {
				t.Fatalf("inject after checkpoint: %d", code)
			}
			if code := post(t, b.handler(), "POST", "/v1/scenarios/ckpt/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 4, Rate: 55}, {Flow: 9, Rate: 0}}, Step: true}); code != http.StatusOK {
				t.Fatalf("ingest+step after checkpoint: %d", code)
			}
			wantState, wantRouting = served(b)
			kill(b)

			c := bootWAL(t, dir, "")
			defer kill(c)
			if state, routing := served(c); !bytes.Equal(state, wantState) || !bytes.Equal(routing, wantRouting) {
				t.Fatalf("replay behind the checkpoint diverges\n got: %s\n      %s\nwant: %s\n      %s", state, routing, wantState, wantRouting)
			}
		})
	}
}

// copyTree copies the directory tree under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoldenWALReplays boots from a log directory written by the commit
// before the command pipeline (testdata/golden-wal: one segment holding
// a create and 15 ingest/step/faults records, next to the meta.json that
// build kept and this one ignores) and demands the state and routing
// report that commit served — the on-disk format and the replay
// semantics did not move. (state.json has since gained the one field the
// engine state grew, `priced_from`, and lost the three counters of the
// cost cache's delta path, whose "rebuild_fraction":0 the create record
// still carries; every other byte is that commit's.)
func TestGoldenWALReplays(t *testing.T) {
	// Recovery may write (tail repair), so it runs on a copy.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal", "g1"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta.json", "00000000000000000001.wal"} {
		data, err := os.ReadFile(filepath.Join("testdata/golden-wal/wal/g1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", "g1", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := bootWAL(t, dir, "")
	defer srv.closeWALs()
	defer srv.closeAll()
	wantState, err := os.ReadFile("testdata/golden-wal/state.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := normalizedState(t, srv, "g1"); got != strings.TrimSpace(string(wantState)) {
		t.Fatalf("golden log replays to a different state\n got: %s\nwant: %s", got, wantState)
	}
	wantRouting, err := os.ReadFile("testdata/golden-wal/routing.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, got := get(t, srv.handler(), "/v1/scenarios/g1/routing"); !bytes.Equal(got, wantRouting) {
		t.Fatalf("golden log replays to a different routing report\n got: %s\nwant: %s", got, wantRouting)
	}
}

// FuzzDecodeCommand appends one arbitrary (type, payload) record behind
// a valid create and boots from that log: recovery never panics, and
// when it refuses the record the error names its seq. A create record
// is a rebuild — a well-formed one replaces the scenario — so its spec
// is held to a size the fuzzer can afford to build.
func FuzzDecodeCommand(f *testing.F) {
	for _, c := range commandSamples() {
		payload, _ := c.encode()
		f.Add(uint8(c.walType()), payload)
	}
	f.Add(uint8(wal.TypeIngest), []byte{1, 0})                                       // too short
	f.Add(uint8(wal.TypeIngest), []byte{2, 0, 0, 0, 1, 0, 0, 0})                     // count ≠ length
	f.Add(uint8(wal.TypeIngest), encodeRates([]engine.RateUpdate{{Flow: -1 << 31}})) // well-framed, bad flow
	f.Add(uint8(wal.TypeFaults), []byte(`{"inject":`))
	f.Add(uint8(wal.TypeFaults), []byte(`{"inject":[{"kind":"switch","u":-7}],"heal":[{"kind":"degrade","u":1,"v":99999}]}`))
	f.Add(uint8(wal.TypeStep), []byte("ignored"))
	f.Add(uint8(wal.TypeCreate), []byte(`{"id":"c1","spec":{"k":6,"flows":9}}`))
	f.Add(uint8(wal.TypeAnchor), []byte{0xff})
	f.Add(uint8(wal.TypeCreate), []byte(`{"id":"c1"}`)) // no spec to rebuild from
	f.Add(uint8(0), []byte(nil))
	f.Add(uint8(200), []byte("x"))

	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		var c walCreate
		if wal.Type(typ) == wal.TypeCreate && json.Unmarshal(payload, &c) == nil && c.Spec != nil {
			if sp := c.Spec; max(sp.K, sp.Leaves, sp.Spines, sp.HostsPerLeaf, sp.SFCLen) > 8 || max(sp.Flows, len(sp.Pairs)) > 256 {
				t.Skip("create record with a spec too large to build per fuzz input")
			}
		}
		dir := t.TempDir()
		a := newWALServer(failfs.OS, dir)
		a.walOpts.Policy = wal.SyncOS
		if code := post(t, a.handler(), "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
		sc := a.get("c1")
		var seq uint64
		var appendErr error
		if err := sc.actor.Do(func() {
			seq, appendErr = sc.wal.Append(wal.Type(typ), payload)
			sc.dirty = true // as appendWAL leaves it
		}); err != nil || appendErr != nil {
			t.Fatalf("append: %v / %v", err, appendErr)
		}
		a.closeAll()
		a.closeWALs()

		b := newWALServer(failfs.OS, dir)
		b.recovering.Store(true)
		err := b.recoverState(context.Background(), "")
		defer b.closeWALs()
		defer b.closeAll()
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("seq %d:", seq)) {
				t.Fatalf("replay error does not name seq %d: %v", seq, err)
			}
			return
		}
		if b.get("c1") == nil {
			t.Fatal("recovery succeeded without the scenario")
		}
	})
}

// blockingFS holds every ReadFile until released — a recovery that
// cannot get past its first segment.
type blockingFS struct {
	failfs.FS
	release chan struct{}
}

func (f *blockingFS) ReadFile(name string) ([]byte, error) {
	<-f.release
	return f.FS.ReadFile(name)
}

// TestReadyzGatedUntilRecoveryReturns: from the moment startRecovery
// returns — which is before main starts the listener — until
// recoverState is done, /readyz answers 503 "recovering" and /v1 is
// closed; only then does the recovered scenario become readable.
func TestReadyzGatedUntilRecoveryReturns(t *testing.T) {
	dir := t.TempDir()
	a := newWALServer(failfs.OS, dir)
	if code := post(t, a.handler(), "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, a.handler(), "POST", "/v1/scenarios/c1/step", nil); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	if err := checkpointNow(a); err != nil {
		t.Fatal(err)
	}
	a.closeAll()
	a.closeWALs()

	fs := &blockingFS{FS: failfs.OS, release: make(chan struct{})}
	srv := newWALServer(fs, dir)
	h := srv.handler()
	if code, _ := get(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before startRecovery: %d (the gate is startRecovery's to close)", code)
	}
	recovered := srv.startRecovery(context.Background(), "", 0)
	for i := 0; i < 3; i++ {
		code, body := get(t, h, "/readyz")
		if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"recovering"`)) {
			t.Fatalf("readyz during recovery: %d %s", code, body)
		}
		if code, _ := get(t, h, "/v1/scenarios/c1/state"); code != http.StatusServiceUnavailable {
			t.Fatalf("/v1 during recovery: %d", code)
		}
	}
	select {
	case err := <-recovered:
		t.Fatalf("recovery finished while its segment read was blocked: %v", err)
	default:
	}
	close(fs.release)
	if err := <-recovered; err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if code, body := get(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d %s", code, body)
	}
	if code, _ := get(t, h, "/v1/scenarios/c1/state"); code != http.StatusOK {
		t.Fatalf("/v1 after recovery: %d", code)
	}
	srv.closeAll()
	srv.closeWALs()
}
