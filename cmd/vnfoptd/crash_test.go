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
	"sync/atomic"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/fault"
	"vnfopt/internal/wal"
)

// The crash-injection suite: iterate the kill point across every I/O
// boundary of a live create→ingest→step→fault→checkpoint→delete→re-create
// workload and assert the recovered daemon is bit-identical to a
// reference daemon that executed the same acknowledged command prefix
// and never crashed. The engine is deterministic, the WAL appends before
// acknowledging, a checkpoint is durable before the log drops what it
// covers, and a delete commits on one rename — so at any kill point the
// recovered state must be exactly ref(j) or ref(j+1), where j counts
// acknowledged mutating commands and the +1 is the one command whose
// record reached disk but whose acknowledgement didn't (its durability
// is a bonus, its loss would have been legal — but a torn mix is never).

// crashSpec is the deterministic workload scenario: explicit pairs on
// the default k=4 fat-tree, so every run computes the same placement.
func crashSpec() *ScenarioSpec {
	return &ScenarioSpec{
		ID: "c1",
		Pairs: []PairSpec{
			{Src: 0, Dst: 5, Rate: 10},
			{Src: 1, Dst: 9, Rate: 8},
			{Src: 2, Dst: 12, Rate: 5},
		},
	}
}

// crashCommand is one workload step against a live server. mutating
// commands advance engine state iff acknowledged (HTTP 2xx).
type crashCommand struct {
	name     string
	mutating bool
	run      func(t *testing.T, srv *server, h http.Handler) bool // acked?
}

// post drives one request through the route table without a listener.
func post(t *testing.T, h http.Handler, method, path string, body any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// checkpointNow checkpoints every scenario on its actor and waits,
// returning the first failure. (The daemon's checkpointAll runs the same
// scenario.checkpoint but does not wait.)
func checkpointNow(srv *server) error {
	var first error
	srv.scenarios.Range(func(_ string, sc *scenario) bool {
		var cerr error
		if err := sc.actor.Do(func() { cerr = sc.checkpoint() }); err != nil {
			cerr = err
		}
		if first == nil {
			first = cerr
		}
		return true
	})
	return first
}

func is2xx(code int) bool { return code >= 200 && code < 300 }

// httpCommand is a mutating crashCommand that is one HTTP request.
func httpCommand(name, method, path string, body any) crashCommand {
	return crashCommand{name: name, mutating: true, run: func(t *testing.T, _ *server, h http.Handler) bool {
		return is2xx(post(t, h, method, path, body))
	}}
}

var checkpointCommand = crashCommand{name: "checkpoint", run: func(_ *testing.T, srv *server, _ http.Handler) bool {
	return checkpointNow(srv) == nil
}}

// crashWorkload is the command sequence. victim is the switch to kill,
// chosen from the reference run's initial placement. The first two
// checkpoints put segment rotation and old-segment removal in the
// kill-point space (the second one over a log that already starts at a
// checkpoint); the third finds an update ingested and not yet stepped, so
// it is put off and step3 takes it, behind its own record. The delete
// puts the tombstone there, and the re-create shows the successor never
// inherits anything from the scenario it replaces.
func crashWorkload(victim int) []crashCommand {
	return []crashCommand{
		httpCommand("create", "POST", "/v1/scenarios", crashSpec()),
		httpCommand("ingest1", "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 20}}}),
		httpCommand("step1", "POST", "/v1/scenarios/c1/step", nil),
		httpCommand("inject", "POST", "/v1/scenarios/c1/faults", faultsRequest{Inject: []fault.Fault{{Kind: fault.Switch, U: victim}}}),
		checkpointCommand,
		httpCommand("ingest2", "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 1, Rate: 3.5}, {Flow: 2, Rate: 7.25}}}),
		httpCommand("step2", "POST", "/v1/scenarios/c1/step", nil),
		checkpointCommand,
		httpCommand("heal", "POST", "/v1/scenarios/c1/faults", faultsRequest{Heal: []fault.Fault{{Kind: fault.Switch, U: victim}}}),
		httpCommand("ingest3", "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 12}, {Flow: 1, Rate: 6}}}),
		checkpointCommand,
		httpCommand("step3", "POST", "/v1/scenarios/c1/step", nil),
		httpCommand("delete", "DELETE", "/v1/scenarios/c1", nil),
		httpCommand("recreate", "POST", "/v1/scenarios", crashSpec()),
		httpCommand("step4", "POST", "/v1/scenarios/c1/step", nil),
	}
}

// legacyStateFile is where the import workload's pre-WAL state file
// lives under a test's directory — the -snapshot path of every boot.
func legacyStateFile(dir string) string { return filepath.Join(dir, "state.json") }

// writeLegacyStateFile writes the state file an older build would have
// left under dir for the one scenario legacy describes.
func writeLegacyStateFile(t *testing.T, dir string, legacy *ScenarioSpec) {
	t.Helper()
	data, err := json.Marshal([]walCreate{{ID: legacy.ID, Spec: legacy}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyStateFile(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// importWorkload is the legacy-import head: the daemon's first boot
// finds a state file written by a build that had no per-scenario log
// (written under dir here, before the commands are returned), seeds a
// log from it and renames the file, then serves a short tail. On a
// server without a WAL — the reference — the head is the create with
// state the import is defined to equal.
func importWorkload(t *testing.T, dir string, legacy *ScenarioSpec) []crashCommand {
	t.Helper()
	writeLegacyStateFile(t, dir, legacy)
	return []crashCommand{
		{name: "import", mutating: true, run: func(t *testing.T, srv *server, h http.Handler) bool {
			if !srv.walEnabled() {
				return is2xx(post(t, h, "POST", "/v1/scenarios", legacy))
			}
			srv.recovering.Store(true)
			return srv.recoverState(context.Background(), legacyStateFile(dir)) == nil
		}},
		httpCommand("ingest", "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 1, Rate: 3.5}}}),
		httpCommand("step", "POST", "/v1/scenarios/c1/step", nil),
	}
}

// legacySpec runs crashSpec a little way on a daemon without a WAL and
// returns the spec-with-state an older build's state file would hold.
func legacySpec(t *testing.T) *ScenarioSpec {
	t.Helper()
	srv := newServer()
	defer srv.closeAll()
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("legacy create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 15}}, Step: true}); code != http.StatusOK {
		t.Fatalf("legacy ingest: %d", code)
	}
	blob, err := srv.get("c1").eng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	spec := crashSpec()
	spec.State = blob
	return spec
}

// normalizedState captures a scenario's engine state with the wall-time
// metric fields zeroed — they measure the run, not the decision state,
// and are the only legitimately non-deterministic part of the state.
func normalizedState(t *testing.T, srv *server, id string) string {
	t.Helper()
	sc := srv.get(id)
	if sc == nil {
		return "" // no scenario
	}
	blob, err := sc.eng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if met, ok := m["metrics"].(map[string]any); ok {
		met["last_epoch_ns"] = 0
		met["total_epoch_ns"] = 0
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// newWALServer builds a server persisting under dir through fs.
func newWALServer(fs failfs.FS, dir string) *server {
	srv := newServer()
	srv.fs = fs
	srv.walDir = filepath.Join(dir, "wal")
	srv.walOpts = wal.Options{Policy: wal.SyncAlways}
	return srv
}

// crashVictim derives the switch the workload kills from the placement
// crashSpec commits to, which is the same on every run.
func crashVictim(t *testing.T) int {
	t.Helper()
	return firstPlaced(t, crashSpec())
}

// firstPlaced is the switch a scenario created from spec (id c1) puts
// its first VNF on.
func firstPlaced(t *testing.T, spec any) int {
	t.Helper()
	srv := newServer()
	defer srv.closeAll()
	if code := post(t, srv.handler(), "POST", "/v1/scenarios", spec); code != http.StatusCreated {
		t.Fatalf("reference create: %d", code)
	}
	return srv.get("c1").eng.Snapshot().Placement[0]
}

// referenceStates runs the workload without any crash — and without a
// WAL: the reference is the engine alone — and captures the normalized
// state after every command prefix: refs[m] is the state after the first
// m mutating commands (refs[0] = no scenario).
func referenceStates(t *testing.T, workload []crashCommand) []string {
	t.Helper()
	srv := newServer()
	defer srv.closeAll()
	h := srv.handler()
	refs := []string{""}
	for _, cmd := range workload {
		if !cmd.run(t, srv, h) {
			t.Fatalf("reference %s failed", cmd.name)
		}
		if cmd.mutating {
			refs = append(refs, normalizedState(t, srv, "c1"))
		}
	}
	return refs
}

// TestCrashInjectionBitIdentical is the acceptance test of the
// durability layer: for every I/O boundary k and both crash flavors
// (clean failure, torn write), kill the filesystem at boundary k, run
// recovery on what's left, and demand a state bit-identical to a
// never-crashed reference. It runs twice: over the full workload from a
// live create, and (subtests import/...) over a first boot that imports
// an older build's state file.
func TestCrashInjectionBitIdentical(t *testing.T) {
	victim := crashVictim(t)
	legacy := legacySpec(t)
	for _, head := range []struct {
		prefix       string
		minOps       int
		minCompacted int64 // segments the workload's checkpoints must remove
		workload     func(t *testing.T, dir string) []crashCommand
	}{
		{"", 33, 4, func(*testing.T, string) []crashCommand { return crashWorkload(victim) }},
		{"import/", 8, 0, func(t *testing.T, dir string) []crashCommand { return importWorkload(t, dir, legacy) }},
	} {
		refs := referenceStates(t, head.workload(t, t.TempDir()))

		// Tiny segments, so a checkpoint finds more than one older segment
		// to remove and the kill point can fall between two removals.
		boot := func(fs failfs.FS, dir string) *server {
			srv := newWALServer(fs, dir)
			srv.walOpts.SegmentBytes = 512
			return srv
		}

		// Probe run: count the I/O boundaries of a crash-free workload.
		probe := failfs.NewFaulty(failfs.OS)
		{
			dir := t.TempDir()
			srv := boot(probe, dir)
			h := srv.handler()
			for _, cmd := range head.workload(t, dir) {
				if !cmd.run(t, srv, h) {
					t.Fatalf("probe %s%s failed", head.prefix, cmd.name)
				}
			}
			srv.closeAll()
			if got := srv.reg.Counter("vnfopt_wal_compacted_segments_total").Value(); got < head.minCompacted {
				t.Fatalf("%scheckpoints removed %d segments, want >= %d (all three must run, one of them removing two)", head.prefix, got, head.minCompacted)
			}
		}
		total := probe.Ops()
		t.Logf("%sI/O boundaries: %d", head.prefix, total)
		if total < head.minOps {
			t.Fatalf("%ssuspiciously few I/O boundaries: %d", head.prefix, total)
		}

		for _, torn := range []bool{false, true} {
			for k := 1; k <= total; k++ {
				t.Run(fmt.Sprintf("%storn=%v/k=%d", head.prefix, torn, k), func(t *testing.T) {
					dir := t.TempDir()
					ffs := failfs.NewFaulty(failfs.OS)
					srv := boot(ffs, dir)
					h := srv.handler()
					workload := head.workload(t, dir)
					ffs.CrashAt(k, torn)
					acked := 0
					for _, cmd := range workload {
						if cmd.run(t, srv, h) && cmd.mutating {
							acked++
						}
					}
					srv.closeAll() // stop goroutines; files are left as the crash left them

					// Reboot on the real filesystem.
					srv2 := boot(failfs.OS, dir)
					srv2.recovering.Store(true)
					if err := srv2.recoverState(context.Background(), legacyStateFile(dir)); err != nil {
						t.Fatalf("recovery after crash at op %d: %v", k, err)
					}
					got := normalizedState(t, srv2, "c1")
					want := refs[acked]
					// The in-flight command's record may have reached disk
					// even though its acknowledgement didn't.
					if got != want && acked+1 < len(refs) && got == refs[acked+1] {
						want = refs[acked+1]
					}
					if got != want {
						t.Fatalf("crash at op %d (torn=%v, %d acked): recovered state diverges\n got: %.200s\nwant: %.200s",
							k, torn, acked, got, want)
					}
					srv2.closeAll()
					srv2.closeWALs()
				})
			}
		}
	}
}

// countdownCtx cancels itself after Err has been consulted n times —
// the deterministic way to abort a replay mid-stream.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRecoveryCancelLeavesLogIntact: SIGTERM during WAL replay aborts
// cleanly — recovery reports cancellation, no segment is deleted or
// truncated, checkpoints are refused while recovery is incomplete, and a
// re-run recovers everything.
func TestRecoveryCancelLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	// Up to step3: the log is the second checkpoint plus two records, the
	// third checkpoint put off.
	for _, cmd := range crashWorkload(crashVictim(t)) {
		if cmd.name == "step3" {
			break
		}
		if !cmd.run(t, srv, h) {
			t.Fatalf("workload %s failed", cmd.name)
		}
	}
	wantState := normalizedState(t, srv, "c1")
	srv.closeAll()
	srv.closeWALs()

	segsBefore := listWALFiles(t, filepath.Join(dir, "wal"))

	// Cancel after two replayed records: mid-stream, deterministically.
	srv2 := newWALServer(failfs.OS, dir)
	srv2.recovering.Store(true)
	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(2)
	err := srv2.recoverState(ctx, "")
	if err == nil {
		t.Fatal("cancelled recovery reported success")
	}
	if !srv2.recovering.Load() {
		t.Fatal("recovering flag cleared by a failed recovery")
	}
	// /readyz answers 503 recovering, /v1 is gated.
	h2 := srv2.handler()
	var ready struct {
		Status string `json:"status"`
	}
	rec := httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while recovering: %d", rec.Code)
	}
	if json.Unmarshal(rec.Body.Bytes(), &ready); ready.Status != "recovering" {
		t.Fatalf("readyz body: %s", rec.Body.String())
	}
	if code := post(t, h2, "GET", "/v1/scenarios", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/v1 while recovering: %d", code)
	}
	// Checkpoints are refused: a mid-recovery checkpoint would compact
	// away records the next attempt still needs.
	if err := srv2.checkpointAll(); err == nil {
		t.Fatal("checkpointAll succeeded during recovery")
	}
	// No segment was deleted or truncated by the aborted replay.
	if after := listWALFiles(t, filepath.Join(dir, "wal")); !equalFiles(segsBefore, after) {
		t.Fatalf("aborted recovery changed the log:\nbefore %v\nafter  %v", segsBefore, after)
	}
	srv2.closeAll()
	srv2.closeWALs()

	// A fresh recovery over the same directory completes and matches.
	srv3 := newWALServer(failfs.OS, dir)
	srv3.recovering.Store(true)
	if err := srv3.recoverState(context.Background(), ""); err != nil {
		t.Fatalf("re-recovery: %v", err)
	}
	if got := normalizedState(t, srv3, "c1"); got != wantState {
		t.Fatalf("re-recovered state diverges from pre-shutdown state")
	}
	if code := post(t, srv3.handler(), "GET", "/v1/scenarios", nil); code != http.StatusOK {
		t.Fatalf("/v1 after recovery: %d", code)
	}
	srv3.closeWALs()
}

// listWALFiles maps every file under root to its size.
func listWALFiles(t *testing.T, root string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			out[path] = info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func equalFiles(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestSnapshotCompactionRacesIngest: periodic checkpoints racing a
// stream of ingest/step commands must neither fail nor lose a record —
// a reboot from whatever they left of the log (no closing checkpoint to
// paper over a loss) replays to the live state.
func TestSnapshotCompactionRacesIngest(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	// Tiny segments so a checkpoint actually compacts mid-test.
	srv.walOpts.SegmentBytes = 512
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			body := ratesRequest{Updates: []engine.RateUpdate{{Flow: i % 3, Rate: float64(i + 1)}}, Step: i%4 == 3}
			if code := post(t, h, "POST", "/v1/scenarios/c1/rates", body); code != http.StatusOK {
				done <- fmt.Errorf("ingest %d: HTTP %d", i, code)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 10; i++ {
		if err := checkpointNow(srv); err != nil {
			t.Fatalf("checkpoint %d racing ingest: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	liveState := normalizedState(t, srv, "c1")
	srv.closeAll()
	srv.closeWALs()

	srv2 := newWALServer(failfs.OS, dir)
	srv2.recovering.Store(true)
	if err := srv2.recoverState(context.Background(), ""); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := normalizedState(t, srv2, "c1"); got != liveState {
		t.Fatal("recovered state diverges after checkpoint/ingest race")
	}
	srv2.closeWALs()
}

// TestWALDeleteAtomicity: deleting a scenario retires its log through
// the rename tombstone, and a tombstone left by a crashed delete is
// collected — never replayed — at boot.
func TestWALDeleteAtomicity(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, h, "DELETE", "/v1/scenarios/c1", nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "wal")); err != nil || len(entries) != 0 {
		t.Fatalf("wal root not empty after delete: %v %v", entries, err)
	}

	// Simulate a crash mid-delete: a tombstone directory left behind.
	tomb := filepath.Join(dir, "wal", "dead"+deletingSuffix)
	if err := os.MkdirAll(tomb, 0o755); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(failfs.OS, dir)
	srv2.recovering.Store(true)
	if err := srv2.recoverState(context.Background(), ""); err != nil {
		t.Fatalf("recovery with tombstone: %v", err)
	}
	if _, err := os.Stat(tomb); !os.IsNotExist(err) {
		t.Fatalf("tombstone not collected: %v", err)
	}
	if srv2.scenarios.Len() != 0 {
		t.Fatalf("deleted scenario resurrected: %d scenarios", srv2.scenarios.Len())
	}
}
