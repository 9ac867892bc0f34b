package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/fault"
	"vnfopt/internal/migration"
	"vnfopt/internal/topology"
	"vnfopt/internal/wal"
)

// Regression suite for the one-store rules: a scenario's log directory
// is its whole durable state, so a delete retires the only copy, a
// checkpoint is just another create record, and the state file of an
// older build is imported once and never read again.

// bootWAL runs a fresh recovery over dir (importing the older build's
// state file at importPath, "" = none) and returns the server.
func bootWAL(t *testing.T, dir, importPath string) *server {
	t.Helper()
	srv := newWALServer(failfs.OS, dir)
	srv.recovering.Store(true)
	if err := srv.recoverState(context.Background(), importPath); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return srv
}

// logRecords lists the record types in a scenario's log under dir.
func logRecords(t *testing.T, dir, id string) []wal.Type {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, "wal", scenarioDirName(id)), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var types []wal.Type
	if err := l.Replay(func(rec wal.Record) error { types = append(types, rec.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	return types
}

// TestSeedCrashThenReboot: import, crash, reboot. The first boot with a
// state file written by an older build seeds each scenario's log with a
// create record carrying the file's state and renames the file; a crash
// any time after that boots from the log alone, and the renamed file is
// never read again — so a scenario deleted later stays deleted.
func TestSeedCrashThenReboot(t *testing.T) {
	dir := t.TempDir()
	snap := legacyStateFile(dir)
	writeLegacyStateFile(t, dir, legacySpec(t))

	// First boot: the import seeds the log; more commands append to it,
	// and then the process dies. The seed is fsynced even under a policy
	// that never syncs an append — the rename must not outrun it.
	srv2 := newWALServer(failfs.OS, dir)
	srv2.walOpts.Policy = wal.SyncOS
	srv2.recovering.Store(true)
	if err := srv2.recoverState(context.Background(), snap); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := srv2.reg.Counter("vnfopt_wal_fsyncs_total").Value(); got < 1 {
		t.Fatalf("%d fsyncs behind the import under -wal-sync os, want the seeded create synced", got)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("state file still in place after the import: %v", err)
	}
	if _, err := os.Stat(snap + ".imported"); err != nil {
		t.Fatalf("imported state file not kept under its new name: %v", err)
	}
	h2 := srv2.handler()
	if code := post(t, h2, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 1, Rate: 4}}, Step: true}); code != http.StatusOK {
		t.Fatal("post-seed ingest")
	}
	want := normalizedState(t, srv2, "c1")
	srv2.closeAll()
	srv2.closeWALs()

	// Second boot, same flags: nothing to import, the log has it all.
	srv3 := bootWAL(t, dir, snap)
	if got := normalizedState(t, srv3, "c1"); got != want {
		t.Fatalf("seed-crash recovery diverges\n got: %.200s\nwant: %.200s", got, want)
	}
	if code := post(t, srv3.handler(), "POST", "/v1/scenarios/c1/step", nil); code != http.StatusOK {
		t.Fatal("step after seed-crash recovery")
	}
	if code := post(t, srv3.handler(), "DELETE", "/v1/scenarios/c1", nil); code != http.StatusOK {
		t.Fatal("delete after seed-crash recovery")
	}
	srv3.closeAll()
	srv3.closeWALs()
	if n := bootWAL(t, dir, snap).scenarios.Len(); n != 0 {
		t.Fatalf("delete undone by a re-import: %d scenarios", n)
	}
}

// TestLegacyImportSkipsLoggedAndRefusesLost: an id whose log directory
// exists is not imported — the log is that scenario's history, the file
// an older copy — and an entry the older build recorded a log for
// (wal_gen) whose directory is gone is refused: acknowledged records
// were lost.
func TestLegacyImportSkipsLoggedAndRefusesLost(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/step", nil); code != http.StatusOK {
		t.Fatal("step")
	}
	want := normalizedState(t, srv, "c1")
	srv.closeAll()
	srv.closeWALs()

	// The file holds c1 before its step, tied to a log by the older build.
	spec, err := json.Marshal(crashSpec())
	if err != nil {
		t.Fatal(err)
	}
	file := []byte(`[{"id":"c1","spec":` + string(spec) + `,"wal_seq":1,"wal_gen":"7783"}]`)
	snap := legacyStateFile(dir)
	if err := os.WriteFile(snap, file, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := bootWAL(t, dir, snap)
	if got := normalizedState(t, srv2, "c1"); got != want {
		t.Fatal("import overwrote a scenario that has a log")
	}
	srv2.closeAll()
	srv2.closeWALs()

	// Same file, but the log directory it names is gone.
	if err := os.RemoveAll(filepath.Join(dir, "wal", "c1")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, file, 0o644); err != nil {
		t.Fatal(err)
	}
	srv3 := newWALServer(failfs.OS, dir)
	srv3.recovering.Store(true)
	err = srv3.recoverState(context.Background(), snap)
	if err == nil || !strings.Contains(err.Error(), "wal directory missing") {
		t.Fatalf("want missing-directory refusal, got %v", err)
	}
	if !srv3.recovering.Load() {
		t.Fatal("recovering flag cleared by a refused recovery")
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("refused import moved the state file: %v", err)
	}
}

// TestCheckpointWaitsForEpochBoundary: an ingest answered 200 and not yet
// stepped lives only in its log record — the engine state a checkpoint
// carries leaves pending updates out. A checkpoint round that finds one
// drops nothing; the step that folds it takes the checkpoint it put off.
// The same holds for the round after the SIGTERM drain: the log stays
// whole, and the reboot still holds the update.
func TestCheckpointWaitsForEpochBoundary(t *testing.T) {
	dir := t.TempDir()
	live := newWALServer(failfs.OS, dir)
	ref := newServer() // same requests, no log, never restarted
	defer ref.closeAll()
	send := func(what, method, path string, body any) {
		t.Helper()
		for _, srv := range []*server{ref, live} {
			if code := post(t, srv.handler(), method, path, body); !is2xx(code) {
				t.Fatalf("%s: %d", what, code)
			}
		}
	}
	logged := func() []wal.Type {
		t.Helper()
		at := t.TempDir() // opening a log may repair it: read a copy
		copyTree(t, dir, at)
		return logRecords(t, at, "c1")
	}
	ingest := func(rate float64) ratesRequest {
		return ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: rate}, {Flow: 2, Rate: 0.5}}}
	}

	send("create", "POST", "/v1/scenarios", crashSpec())
	send("ingest", "POST", "/v1/scenarios/c1/rates", ingest(20))
	if err := checkpointNow(live); err != nil {
		t.Fatal(err)
	}
	if got := logged(); !slices.Equal(got, []wal.Type{wal.TypeCreate, wal.TypeIngest}) {
		t.Fatalf("log behind a checkpoint round with an update pending: %v, want create + ingest", got)
	}
	send("step", "POST", "/v1/scenarios/c1/step", nil)
	if got := logged(); !slices.Equal(got, []wal.Type{wal.TypeCreate}) {
		t.Fatalf("log behind the step: %v, want the checkpoint it owed and nothing else", got)
	}

	// Shutdown with an update pending: drain, last round, close.
	send("second ingest", "POST", "/v1/scenarios/c1/rates", ingest(7))
	if err := live.checkpointAll(); err != nil {
		t.Fatal(err)
	}
	live.closeAll()
	live.closeWALs()
	if got := logged(); !slices.Equal(got, []wal.Type{wal.TypeCreate, wal.TypeIngest}) {
		t.Fatalf("log behind the shutdown round: %v, want checkpoint + ingest", got)
	}

	live = bootWAL(t, dir, "")
	defer live.closeWALs()
	defer live.closeAll()
	send("step after the restart", "POST", "/v1/scenarios/c1/step", nil)
	if got, want := normalizedState(t, live, "c1"), normalizedState(t, ref, "c1"); got != want {
		t.Fatalf("restart lost an acknowledged ingest\n got: %s\nwant: %s", got, want)
	}
}

// inexactEpoch is epoch i of a seeded stream over diffSpec's 24 flows:
// one sparse ingest + step, with rates no float sums exactly.
func inexactEpoch(rng *rand.Rand, i int) ratesRequest {
	return ratesRequest{Updates: []engine.RateUpdate{{Flow: rng.Intn(24), Rate: 100 * rng.Float64()}, {Flow: rng.Intn(24), Rate: 0.1 * float64(i)}}, Step: true}
}

// TestBootFromCheckpointBitIdentical: a boot from a checkpoint builds
// its cost cache from the rates — and so does the daemon that wrote the
// checkpoint, every epoch, so nothing is done to it behind the record and
// the epochs after it come out the same on both, bit for bit, under
// sparse updates with rates no float sums exactly.
func TestBootFromCheckpointBitIdentical(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", diffSpec("c1")); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	rng := rand.New(rand.NewSource(5))
	epochs := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if code := post(t, h, "POST", "/v1/scenarios/c1/rates", inexactEpoch(rng, i)); code != http.StatusOK {
				t.Fatalf("epoch %d: %d", i, code)
			}
		}
	}
	epochs(12)
	if err := checkpointNow(srv); err != nil {
		t.Fatal(err)
	}
	epochs(12)
	want := normalizedState(t, srv, "c1")
	wantSnap := *srv.get("c1").eng.Snapshot()
	srv.closeAll()
	srv.closeWALs()

	srv2 := bootWAL(t, dir, "")
	defer srv2.closeWALs()
	defer srv2.closeAll()
	if got := normalizedState(t, srv2, "c1"); got != want {
		t.Fatalf("boot from checkpoint + 12 epochs diverges\n got: %s\nwant: %s", got, want)
	}
	if got := *srv2.get("c1").eng.Snapshot(); got.CommCost != wantSnap.CommCost || got.CommittedCost != wantSnap.CommittedCost {
		t.Fatalf("snapshot costs %v / %v, want %v / %v", got.CommCost, got.CommittedCost, wantSnap.CommCost, wantSnap.CommittedCost)
	}
}

// TestCheckpointScheduleKeepsBits: when a daemon checkpoints decides how
// long its log is and nothing else. One request stream — sparse updates
// with rates no float sums exactly, around a switch fault and its heal —
// goes to a daemon that never checkpoints, one that checkpoints behind
// every request, and one that checkpoints at seeded points and is closed
// and booted from its log after each; all three end on the same bytes.
func TestCheckpointScheduleKeepsBits(t *testing.T) {
	type request struct {
		path string
		body any
	}
	victim := []fault.Fault{{Kind: fault.Switch, U: firstPlaced(t, diffSpec("c1"))}}
	rng := rand.New(rand.NewSource(5))
	stream := []request{{"/v1/scenarios", diffSpec("c1")}}
	for i := 0; i < 60; i++ {
		switch i {
		case 8:
			stream = append(stream, request{"/v1/scenarios/c1/faults", faultsRequest{Inject: victim}})
		case 20:
			stream = append(stream, request{"/v1/scenarios/c1/faults", faultsRequest{Heal: victim}})
		}
		stream = append(stream, request{"/v1/scenarios/c1/rates", inexactEpoch(rng, i)})
	}

	// run feeds the stream to a fresh daemon, handing it to behind after
	// every request, and returns where it ends.
	run := func(name string, behind func(dir string, srv *server) *server) (string, engine.Snapshot) {
		dir := t.TempDir()
		srv := newWALServer(failfs.OS, dir)
		for i, r := range stream {
			if code := post(t, srv.handler(), "POST", r.path, r.body); !is2xx(code) {
				t.Fatalf("%s: request %d (%s): HTTP %d", name, i, r.path, code)
			}
			srv = behind(dir, srv)
		}
		defer srv.closeWALs()
		defer srv.closeAll()
		return normalizedState(t, srv, "c1"), *srv.get("c1").eng.Snapshot()
	}
	checkpoint := func(srv *server) {
		if err := checkpointNow(srv); err != nil {
			t.Fatal(err)
		}
	}
	want, wantSnap := run("never", func(_ string, srv *server) *server { return srv })
	for _, schedule := range []struct {
		name   string
		behind func(dir string, srv *server) *server
	}{
		{"behind every request", func(_ string, srv *server) *server {
			checkpoint(srv)
			return srv
		}},
		{"at seeded points, with a restart after each", func(dir string, srv *server) *server {
			if rng.Intn(4) != 0 {
				return srv
			}
			checkpoint(srv)
			srv.closeAll()
			srv.closeWALs()
			return bootWAL(t, dir, "")
		}},
	} {
		got, gotSnap := run(schedule.name, schedule.behind)
		if got != want {
			t.Errorf("checkpointing %s changes the state\n got: %s\nwant: %s", schedule.name, got, want)
		}
		if gotSnap.CommCost != wantSnap.CommCost || gotSnap.CommittedCost != wantSnap.CommittedCost {
			t.Errorf("checkpointing %s: snapshot costs %v / %v, want %v / %v", schedule.name, gotSnap.CommCost, gotSnap.CommittedCost, wantSnap.CommCost, wantSnap.CommittedCost)
		}
	}
}

// TestDeleteThenKillStaysDeleted: create, checkpoint, DELETE answered
// 200, kill with no further checkpoint. The next boot is clean — no
// scenario, nothing left under the WAL root. (With a daemon-wide
// snapshot file next to the logs this boot was refused: the file still
// named the log the delete had retired.)
func TestDeleteThenKillStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/step", nil); code != http.StatusOK {
		t.Fatal("step")
	}
	if err := checkpointNow(srv); err != nil {
		t.Fatal(err)
	}
	if code := post(t, h, "DELETE", "/v1/scenarios/c1", nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	srv.closeAll() // kill: no shutdown checkpoint, no log close

	srv2 := bootWAL(t, dir, "")
	if n := srv2.scenarios.Len(); n != 0 {
		t.Fatalf("acknowledged delete came back: %d scenarios", n)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "wal")); err != nil || len(entries) != 0 {
		t.Fatalf("wal root not empty after delete + reboot: %v %v", entries, err)
	}
}

// TestDeleteRecreateThenKillServesSuccessor: as above, with the same id
// re-created after the delete. The reboot serves the successor's state;
// nothing of the checkpointed predecessor leaks into it.
func TestDeleteRecreateThenKillServesSuccessor(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 20}}, Step: true}); code != http.StatusOK {
		t.Fatal("ingest")
	}
	if err := checkpointNow(srv); err != nil {
		t.Fatal(err)
	}
	predecessor := normalizedState(t, srv, "c1")
	if code := post(t, h, "DELETE", "/v1/scenarios/c1", nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("re-create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 2, Rate: 1.5}}}); code != http.StatusOK {
		t.Fatal("successor ingest")
	}
	want := normalizedState(t, srv, "c1")
	if want == predecessor {
		t.Fatal("successor and predecessor states are equal; the test is vacuous")
	}
	srv.closeAll() // kill

	srv2 := bootWAL(t, dir, "")
	defer srv2.closeWALs()
	defer srv2.closeAll()
	if got := normalizedState(t, srv2, "c1"); got != want {
		t.Fatalf("reboot does not serve the successor\n got: %.200s\nwant: %.200s", got, want)
	}
}

// TestLegacyAnchorRecordSkipped: a log an older build compacted carries
// anchor records (markers tying it to a snapshot file). They still
// decode, and replay steps over them.
func TestLegacyAnchorRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	sc := srv.get("c1")
	var appendErr error
	if err := sc.actor.Do(func() { _, appendErr = sc.wal.Append(wal.TypeAnchor, []byte{1, 0, 0, 0, 0, 0, 0, 0}) }); err != nil || appendErr != nil {
		t.Fatalf("append: %v / %v", err, appendErr)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 20}}, Step: true}); code != http.StatusOK {
		t.Fatal("ingest")
	}
	want := normalizedState(t, srv, "c1")
	srv.closeAll()
	srv.closeWALs()
	if got := logRecords(t, dir, "c1"); len(got) != 4 || got[1] != wal.TypeAnchor {
		t.Fatalf("log holds %v, want create, anchor, ingest, step", got)
	}

	srv2 := bootWAL(t, dir, "")
	defer srv2.closeWALs()
	defer srv2.closeAll()
	if got := normalizedState(t, srv2, "c1"); got != want {
		t.Fatal("replay over an anchor record diverges")
	}
}

// TestLogWithoutCreateRefused: a log an older build compacted past its
// create record (it kept the state in a snapshot file instead) cannot be
// rebuilt from; the boot says so, naming the first record.
func TestLogWithoutCreateRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(filepath.Join(dir, "wal", "c1"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seqs 1–2 are where the create and an ingest used to be.
	for _, typ := range []wal.Type{wal.TypeStep, wal.TypeStep, wal.TypeAnchor, wal.TypeStep} {
		if _, err := l.Append(typ, nil); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	srv := newWALServer(failfs.OS, dir)
	srv.recovering.Store(true)
	err = srv.recoverState(context.Background(), "")
	if err == nil || !strings.Contains(err.Error(), "seq 1: first record is step, not create") {
		t.Fatalf("want a refusal naming seq 1, got %v", err)
	}
}

// TestRetiredMigratorRefusedOnRecovery: a log whose create record names
// a migrator this build no longer has ("layereddp") fails the boot,
// naming the scenario, the record's seq and the migrator, rather than
// rebuilding under another one — whether that record opens the log or
// is a checkpoint behind a good create and a step. The log is left byte
// for byte as found and the server stays unready.
func TestRetiredMigratorRefusedOnRecovery(t *testing.T) {
	retired := func(spec *ScenarioSpec) []byte {
		t.Helper()
		spec.Migrator = "layereddp"
		payload, err := json.Marshal(walCreate{ID: "c1", Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	good, err := json.Marshal(walCreate{ID: "c1", Spec: crashSpec()})
	if err != nil {
		t.Fatal(err)
	}
	type record struct {
		typ     wal.Type
		payload []byte
	}
	for _, tc := range []struct {
		name string
		log  []record
		seq  int
	}{
		{"create", []record{{wal.TypeCreate, retired(crashSpec())}, {wal.TypeStep, nil}}, 1},
		{"checkpoint", []record{{wal.TypeCreate, good}, {wal.TypeStep, nil}, {wal.TypeCreate, retired(legacySpec(t))}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			logDir := filepath.Join(dir, "wal", scenarioDirName("c1"))
			l, err := wal.Open(logDir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.log {
				if _, err := l.Append(rec.typ, rec.payload); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			segments := func() map[string]string {
				t.Helper()
				entries, err := os.ReadDir(logDir)
				if err != nil {
					t.Fatal(err)
				}
				out := map[string]string{}
				for _, e := range entries {
					b, err := os.ReadFile(filepath.Join(logDir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					out[e.Name()] = string(b)
				}
				return out
			}
			before := segments()

			srv := newWALServer(failfs.OS, dir)
			srv.recovering.Store(true)
			err = srv.recoverState(context.Background(), "")
			for _, want := range []string{`scenario "c1"`, fmt.Sprintf("seq %d:", tc.seq), `unknown migrator "layereddp"`} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("want a refusal naming %s, got %v", want, err)
				}
			}
			if after := segments(); !maps.Equal(before, after) {
				t.Fatal("a refused recovery changed the log")
			}
			if code, body := get(t, srv.handler(), "/readyz"); code != http.StatusServiceUnavailable {
				t.Fatalf("readyz after a refused recovery: %d %s", code, body)
			}
			if srv.scenarios.Len() != 0 {
				t.Fatalf("%d scenarios served after a refused recovery", srv.scenarios.Len())
			}
		})
	}
}

// TestRefusedCreateWritesNothing: a create whose spec is refused (422)
// makes no filesystem operation, because its engine is built before its
// log is opened. A create whose log cannot be started (500) — the
// filesystem dies at each of the create's I/O boundaries in turn — is
// neither registered nor left with metric series, and one that dies at
// the first, the mkdir of its log directory, leaves no directory either.
func TestRefusedCreateWritesNothing(t *testing.T) {
	boot := func() (*server, *failfs.Faulty) {
		ffs := failfs.NewFaulty(failfs.OS)
		srv := newWALServer(ffs, t.TempDir())
		if err := os.MkdirAll(srv.walDir, 0o755); err != nil {
			t.Fatal(err)
		}
		return srv, ffs
	}
	walRoot := func(srv *server) []os.DirEntry {
		t.Helper()
		entries, err := os.ReadDir(srv.walDir)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	left := func(srv *server) {
		t.Helper()
		if srv.get("c1") != nil || srv.scenarios.Len() != 0 {
			t.Fatalf("%d scenarios registered by a failed create", srv.scenarios.Len())
		}
		var prom strings.Builder
		if err := srv.reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(prom.String(), `scenario="c1"`) {
			t.Fatal(`a failed create left {scenario="c1"} series`)
		}
	}

	srv, ffs := boot()
	spec := crashSpec()
	spec.Migrator = "layereddp"
	if code := post(t, srv.handler(), "POST", "/v1/scenarios", spec); code != http.StatusUnprocessableEntity {
		t.Fatalf("create naming a retired migrator: %d, want 422", code)
	}
	if n := ffs.Ops(); n != 0 {
		t.Fatalf("a refused create made %d filesystem operations", n)
	}
	if entries := walRoot(srv); len(entries) != 0 {
		t.Fatalf("a refused create left %v under the wal root", entries)
	}
	left(srv)
	if code := post(t, srv.handler(), "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	total := ffs.Ops()
	srv.closeAll()
	srv.closeWALs()

	for k := 1; k <= total; k++ {
		srv, ffs := boot()
		ffs.CrashAt(k, false)
		if code := post(t, srv.handler(), "POST", "/v1/scenarios", crashSpec()); code != http.StatusInternalServerError {
			t.Fatalf("create crashed at op %d of %d: %d, want 500", k, total, code)
		}
		left(srv)
		if entries := walRoot(srv); k == 1 && len(entries) != 0 {
			t.Fatalf("a create crashed at its mkdir left %v under the wal root", entries)
		}
		srv.closeAll()
	}
}

// TestDeleteCommittedNoResurrect: a delete whose tombstone rename
// committed but whose collection crashed must stay deleted at the next
// boot, checkpointed or not.
func TestDeleteCommittedNoResurrect(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/step", nil); code != http.StatusOK {
		t.Fatal("step")
	}
	if err := checkpointNow(srv); err != nil {
		t.Fatal(err)
	}
	srv.closeAll()
	srv.closeWALs()
	// Crash between the delete's rename (commit point) and its RemoveAll.
	if err := os.Rename(filepath.Join(dir, "wal", "c1"), filepath.Join(dir, "wal", "c1"+deletingSuffix)); err != nil {
		t.Fatal(err)
	}

	srv2 := bootWAL(t, dir, "")
	if srv2.scenarios.Len() != 0 {
		t.Fatalf("committed delete resurrected: %d scenarios", srv2.scenarios.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "c1"+deletingSuffix)); !os.IsNotExist(err) {
		t.Fatalf("tombstone not collected: %v", err)
	}
}

// TestDeletingSuffixIDIsSafe: a scenario whose *id* ends in ".deleting"
// must not map to a directory the tombstone sweep destroys.
func TestDeletingSuffixIDIsSafe(t *testing.T) {
	if name := scenarioDirName("prod.deleting"); strings.HasSuffix(name, deletingSuffix) {
		t.Fatalf("live dir %q collides with the tombstone namespace", name)
	}
	for _, id := range []string{"prod.deleting", ".deleting", "a/b.deleting", "x.deleting.deleting"} {
		back, err := scenarioDirID(scenarioDirName(id))
		if err != nil || back != id {
			t.Fatalf("dir name round-trip for %q: got %q, %v", id, back, err)
		}
	}

	dir := t.TempDir()
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	spec := crashSpec()
	spec.ID = "prod.deleting"
	if code := post(t, h, "POST", "/v1/scenarios", spec); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/prod.deleting/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 20}}, Step: true}); code != http.StatusOK {
		t.Fatal("ingest")
	}
	want := normalizedState(t, srv, "prod.deleting")
	srv.closeAll()
	srv.closeWALs()

	srv2 := bootWAL(t, dir, "")
	if got := normalizedState(t, srv2, "prod.deleting"); got != want {
		t.Fatal("scenario with .deleting id lost across reboot")
	}
	// And its own delete still retires the log cleanly.
	if code := post(t, srv2.handler(), "DELETE", "/v1/scenarios/prod.deleting", nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "wal")); err != nil || len(entries) != 0 {
		t.Fatalf("wal root not empty after delete: %v %v", entries, err)
	}
	srv2.closeWALs()
}

// renameFailFS fails Rename while armed; everything else passes through.
type renameFailFS struct {
	failfs.FS
	fail atomic.Bool
}

func (f *renameFailFS) Rename(oldpath, newpath string) error {
	if f.fail.Load() {
		return fmt.Errorf("injected rename failure")
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestDeleteWALRetireFailure: when the log directory cannot be retired,
// the delete answers 500 (the deletion is not durable — a reboot would
// resurrect the scenario), and a retry finishes the job.
func TestDeleteWALRetireFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := &renameFailFS{FS: failfs.OS}
	srv := newWALServer(ffs, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}

	ffs.fail.Store(true)
	if code := post(t, h, "DELETE", "/v1/scenarios/c1", nil); code != http.StatusInternalServerError {
		t.Fatalf("delete with unretirable wal: %d, want 500", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "c1")); err != nil {
		t.Fatalf("wal dir gone despite failed retire: %v", err)
	}

	// Retry once the filesystem recovers: the registry no longer has the
	// scenario, but the orphaned directory is found and retired.
	ffs.fail.Store(false)
	if code := post(t, h, "DELETE", "/v1/scenarios/c1", nil); code != http.StatusOK {
		t.Fatalf("delete retry: %d, want 200", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "c1")); !os.IsNotExist(err) {
		t.Fatalf("wal dir survived the retried delete: %v", err)
	}
	if code := post(t, h, "DELETE", "/v1/scenarios/c1", nil); code != http.StatusNotFound {
		t.Fatalf("delete of fully-deleted scenario: %d, want 404", code)
	}

	// Nothing resurrects at the next boot.
	srv2 := bootWAL(t, dir, "")
	if srv2.scenarios.Len() != 0 {
		t.Fatalf("deleted scenario resurrected after retried delete")
	}
}

// TestRemovedSearchWorkersStillLoads: a field that left the scenario
// spec or the engine state is refused on a live create like any unknown
// field — but the create records, checkpoints and state files an older
// daemon wrote with it must still boot (they decode leniently) and carry
// on: search_workers' exhaustive migrator steps on the one search that is
// left; rebuild_fraction, the repair retry's repair_retries /
// repair_backoff_ns and the delta_pairs / delta_epochs / rebuild_epochs
// counters of the cost cache's delta path are ignored, the state around
// them is not.
func TestRemovedSearchWorkersStillLoads(t *testing.T) {
	// An older daemon's spec with every policy key since removed.
	const oldPolicy = `{"pairs":[{"src":0,"dst":5,"rate":10},{"src":1,"dst":9,"rate":8},{"src":2,"dst":12,"rate":5}],` +
		`"policy":{"hysteresis":0,"cooldown":0,"budget":0,"rebuild_fraction":1,"repair_retries":3,"repair_backoff_ns":25000000},` +
		`"state":{"epoch":2,"rates":[10,8,5],"placement":[8,9,10],"committed_cost":1,"committed_epoch":0,"last_migration":-1,` +
		`"metrics":{"epochs":2,"delta_pairs":5,"delta_epochs":3,"rebuild_epochs":1}}}`
	// live is what a client may no longer send; old is the spec an older
	// daemon wrote, resuming at epoch from its state if it carries one;
	// a step of the booted scenario consults migrator, by exact search
	// or not.
	removed := []struct {
		name      string
		live, old string
		epoch     int
		migrator  string
		searches  bool
	}{
		{
			name:     "search_workers",
			live:     `{"search_workers":2,"k":4,"flows":10}`,
			old:      `{"search_workers":2,"k":4,"flows":10,"seed":3,"sfc_len":3,"migrator":"exhaustive","node_budget":50000}`,
			migrator: "Exhaustive",
			searches: true,
		},
		{name: "rebuild_fraction", live: `{"k":4,"flows":10,"policy":{"rebuild_fraction":1}}`, old: oldPolicy, epoch: 2, migrator: "mPareto"},
		{name: "repair_retries", live: `{"k":4,"flows":10,"policy":{"repair_retries":3}}`, old: oldPolicy, epoch: 2, migrator: "mPareto"},
		{name: "repair_backoff_ns", live: `{"k":4,"flows":10,"policy":{"repair_backoff_ns":25000000}}`, old: oldPolicy, epoch: 2, migrator: "mPareto"},
	}
	// Each medium boots a daemon from old and says how many epochs it
	// replays on top.
	media := []struct {
		name string
		boot func(t *testing.T, dir, old string) (srv *server, replayed int)
	}{
		{"create record", func(t *testing.T, dir, old string) (*server, int) {
			l, err := wal.Open(filepath.Join(dir, "wal", scenarioDirName("old")), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(wal.TypeCreate, []byte(`{"id":"old","spec":`+old+`}`)); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(wal.TypeStep, nil); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			return bootWAL(t, dir, ""), 1
		}},
		{"snapshot", func(t *testing.T, dir, old string) (*server, int) {
			snap := filepath.Join(dir, "snap.json")
			if err := os.WriteFile(snap, []byte(`[{"id":"old","spec":`+old+`}]`), 0o644); err != nil {
				t.Fatal(err)
			}
			return bootWAL(t, dir, snap), 0
		}},
	}

	live := newServer()
	defer live.closeAll()
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			for _, r := range removed {
				t.Run(r.name, func(t *testing.T) {
					if code := post(t, live.handler(), "POST", "/v1/scenarios", json.RawMessage(r.live)); code != http.StatusBadRequest {
						t.Fatalf("live create with %s: HTTP %d, want 400", r.name, code)
					}
					srv, replayed := m.boot(t, t.TempDir(), r.old)
					defer srv.closeWALs()
					defer srv.closeAll()
					sc := srv.get("old")
					if sc == nil {
						t.Fatal("scenario not recovered")
					}
					if got := sc.eng.MigratorName(); got != r.migrator {
						t.Fatalf("recovered migrator %q, want %s", got, r.migrator)
					}
					before := migration.SearchExpansions()
					if code := post(t, srv.handler(), "POST", "/v1/scenarios/old/step", nil); code != http.StatusOK {
						t.Fatalf("step after recovery: HTTP %d", code)
					}
					if r.searches && migration.SearchExpansions() == before {
						t.Fatal("step after recovery ran no exact search")
					}
					if got, want := sc.eng.Snapshot().Epoch, r.epoch+replayed+1; got != want {
						t.Fatalf("epoch %d after recovery + one step, want %d", got, want)
					}
				})
			}
		})
	}
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the rest of the test, so a
// boot replays at least two logs at once whatever the host.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// overlapFS holds each segment read under root until reads of a second
// scenario directory have started, or until timeout — the first that
// times out records how many directories were being read by then.
type overlapFS struct {
	failfs.FS
	root    string
	timeout time.Duration

	mu       sync.Mutex
	dirs     map[string]bool
	both     chan struct{} // closed when the second directory's first read starts
	inFlight int           // directories read when the first wait timed out; 0 = none did
}

func (f *overlapFS) ReadFile(name string) ([]byte, error) {
	if rel, err := filepath.Rel(f.root, name); err == nil && !strings.HasPrefix(rel, "..") {
		dir, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		f.mu.Lock()
		if !f.dirs[dir] {
			f.dirs[dir] = true
			if len(f.dirs) == 2 {
				close(f.both)
			}
		}
		timedOut := f.inFlight > 0
		f.mu.Unlock()
		if !timedOut {
			select {
			case <-f.both:
			case <-time.After(f.timeout):
				f.mu.Lock()
				if f.inFlight == 0 {
					f.inFlight = len(f.dirs)
				}
				f.mu.Unlock()
			}
		}
	}
	return f.FS.ReadFile(name)
}

// TestRecoveryReplaysLogsConcurrently: with two cores, a boot replays
// two scenario logs at once. Each segment read waits until the other
// scenario's reads have begun; a boot that replays one log at a time
// gets there only by timing out, with one replay in flight.
func TestRecoveryReplaysLogsConcurrently(t *testing.T) {
	atLeastTwoProcs(t)
	dir := t.TempDir()
	a := newWALServer(failfs.OS, dir)
	for _, id := range []string{"a1", "a2"} {
		spec := crashSpec()
		spec.ID = id
		if code := post(t, a.handler(), "POST", "/v1/scenarios", spec); code != http.StatusCreated {
			t.Fatalf("create %s: %d", id, code)
		}
		if code := post(t, a.handler(), "POST", "/v1/scenarios/"+id+"/step", nil); code != http.StatusOK {
			t.Fatalf("step %s: %d", id, code)
		}
	}
	want := map[string]string{"a1": normalizedState(t, a, "a1"), "a2": normalizedState(t, a, "a2")}
	a.closeAll()
	a.closeWALs()

	fs := &overlapFS{FS: failfs.OS, root: filepath.Join(dir, "wal"), timeout: 10 * time.Second, dirs: map[string]bool{}, both: make(chan struct{})}
	b := newWALServer(fs, dir)
	defer b.closeWALs()
	defer b.closeAll()
	b.recovering.Store(true)
	if err := b.recoverState(context.Background(), ""); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if fs.inFlight > 0 {
		t.Fatalf("replays in flight: %d, want 2 (a segment read waited %v for the other scenario's)", fs.inFlight, fs.timeout)
	}
	for id, w := range want {
		if got := normalizedState(t, b, id); got != w {
			t.Fatalf("%s recovered to a different state\n got: %.200s\nwant: %.200s", id, got, w)
		}
	}
	if got := b.recoverySeconds.Value(); got <= 0 {
		t.Fatalf("vnfoptd_recovery_seconds = %v after a boot, want > 0", got)
	}
}

// TestConcurrentRecoveryDeterministic: a boot that replays many logs at
// once serves what the live daemon served, boot after boot. Eight logs —
// the mixed schedule plain, priced routing over capacity and Algorithm 6
// cut short by its node budget; a link fault and a degrade left active;
// a log behind a checkpoint; leaf-spine, unpriced routing, no migration
// — boot five times, each to the live /state and /routing bytes, and a
// create without an id then gets the id after the highest restored one.
// Two more logs whose create names the retired layereddp fail every one
// of twenty boots the same way: the first of them in directory order
// (at seq 10, though the other fails at seq 1 and sooner), with the
// readiness gate shut and the log bytes untouched.
func TestConcurrentRecoveryDeterministic(t *testing.T) {
	atLeastTwoProcs(t)
	dir := t.TempDir()
	a := newWALServer(failfs.OS, dir)
	ts := httptest.NewServer(a.handler())
	routed := diffSpec("s2")
	routed.Routing = &engine.RoutingConfig{LinkCapacity: 60, Alpha: 1, Classify: true}
	exhaustive := diffSpec("s3")
	exhaustive.Migrator, exhaustive.NodeBudget, exhaustive.SFCLen = "exhaustive", 5, 8
	for _, spec := range []ScenarioSpec{diffSpec("s1"), routed, exhaustive, diffSpec("s5")} {
		driveMixedSchedule(t, a, ts, spec, nil)
	}
	// s5 checkpoints, then takes more commands behind the checkpoint.
	sc := a.get("s5")
	var cerr error
	if err := sc.actor.Do(func() { cerr = sc.checkpoint() }); err != nil || cerr != nil {
		t.Fatalf("checkpoint s5: %v / %v", err, cerr)
	}
	if code := do(t, ts, "POST", "/v1/scenarios/s5/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 4, Rate: 55}}, Step: true}, nil); code != http.StatusOK {
		t.Fatalf("ingest+step after checkpoint: %d", code)
	}
	// s4 keeps a link fault and a degrade active.
	faulted := diffSpec("s4")
	faulted.Seed = 11
	if code := do(t, ts, "POST", "/v1/scenarios", faulted, nil); code != http.StatusCreated {
		t.Fatalf("create s4: %d", code)
	}
	topo := topology.MustFatTree(4, nil)
	var links [][2]int
	for _, u := range topo.Switches {
		for _, e := range topo.Graph.Neighbors(u) {
			if topo.Kind[e.To] == topology.Switch && u < e.To {
				links = append(links, [2]int{u, e.To})
			}
		}
	}
	inject := faultsRequest{Inject: []fault.Fault{
		{Kind: fault.Link, U: links[0][0], V: links[0][1]},
		{Kind: fault.Degrade, U: links[len(links)-1][0], V: links[len(links)-1][1], Factor: 3},
	}}
	if code := do(t, ts, "POST", "/v1/scenarios/s4/faults", inject, nil); code != http.StatusOK {
		t.Fatalf("inject on s4: %d", code)
	}
	if code := do(t, ts, "POST", "/v1/scenarios/s4/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 2, Rate: 30}}, Step: true}, nil); code != http.StatusOK {
		t.Fatalf("ingest+step on s4: %d", code)
	}
	leafSpine := diffSpec("s6")
	leafSpine.Topology = "leaf-spine"
	unpriced := diffSpec("s7")
	unpriced.Routing = &engine.RoutingConfig{LinkCapacity: 60, Classify: true}
	still := diffSpec("s11")
	still.Migrator = "nomigration"
	for _, spec := range []ScenarioSpec{leafSpine, unpriced, still} {
		if code := do(t, ts, "POST", "/v1/scenarios", spec, nil); code != http.StatusCreated {
			t.Fatalf("create %s: %d", spec.ID, code)
		}
		if code := do(t, ts, "POST", "/v1/scenarios/"+spec.ID+"/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 50}, {Flow: 7, Rate: 0.5}}, Step: true}, nil); code != http.StatusOK {
			t.Fatalf("ingest+step on %s: %d", spec.ID, code)
		}
	}
	ts.Close()

	ids := []string{"s1", "s11", "s2", "s3", "s4", "s5", "s6", "s7"}
	type served struct {
		state       []byte
		routingCode int
		routing     []byte
	}
	serve := func(srv *server, id string) served {
		t.Helper()
		code, state := get(t, srv.handler(), "/v1/scenarios/"+id+"/state")
		if code != http.StatusOK {
			t.Fatalf("GET %s/state: %d", id, code)
		}
		rcode, routing := get(t, srv.handler(), "/v1/scenarios/"+id+"/routing")
		return served{canonicalState(t, state), rcode, routing}
	}
	want := map[string]served{}
	for _, id := range ids {
		want[id] = serve(a, id)
	}
	a.closeAll()
	a.closeWALs()

	for boot := 0; boot < 5; boot++ {
		at := t.TempDir()
		copyTree(t, dir, at)
		b := bootWAL(t, at, "")
		if b.scenarios.Len() != len(ids) {
			t.Fatalf("boot %d: %d scenarios, want %d", boot, b.scenarios.Len(), len(ids))
		}
		for _, id := range ids {
			got, w := serve(b, id), want[id]
			if !bytes.Equal(got.state, w.state) || got.routingCode != w.routingCode || !bytes.Equal(got.routing, w.routing) {
				t.Fatalf("boot %d: %s diverges from the live daemon\n got: %s\n      %d %s\nwant: %s\n      %d %s",
					boot, id, got.state, got.routingCode, got.routing, w.state, w.routingCode, w.routing)
			}
		}
		var created struct {
			ID string `json:"id"`
		}
		bs := httptest.NewServer(b.handler())
		code := do(t, bs, "POST", "/v1/scenarios", diffSpec(""), &created)
		bs.Close()
		if code != http.StatusCreated || created.ID != "s12" {
			t.Fatalf("boot %d: create without an id: HTTP %d, id %q, want s12", boot, code, created.ID)
		}
		b.closeAll()
		b.closeWALs()
	}

	// The retired logs come first in directory order, so the two workers
	// start on them at once: s0-retired steps eight times and then
	// checkpoints into layereddp at seq 10, s0-retired-too is created
	// with it at seq 1 and fails first.
	retired := func(id string) []byte {
		t.Helper()
		spec := crashSpec()
		spec.ID, spec.Migrator = id, "layereddp"
		payload, err := json.Marshal(walCreate{ID: id, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	good := crashSpec()
	good.ID = "s0-retired"
	goodCreate, err := json.Marshal(walCreate{ID: good.ID, Spec: good})
	if err != nil {
		t.Fatal(err)
	}
	type record struct {
		typ     wal.Type
		payload []byte
	}
	slow := []record{{wal.TypeCreate, goodCreate}}
	for range 8 {
		slow = append(slow, record{wal.TypeStep, nil})
	}
	for id, recs := range map[string][]record{
		"s0-retired":     append(slow, record{wal.TypeCreate, retired("s0-retired")}),
		"s0-retired-too": {{wal.TypeCreate, retired("s0-retired-too")}, {wal.TypeStep, nil}},
	} {
		l, err := wal.Open(filepath.Join(dir, "wal", scenarioDirName(id)), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := l.Append(rec.typ, rec.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tree := func() map[string]string {
		t.Helper()
		out := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			out[path] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := tree()
	var first string
	for boot := 0; boot < 20; boot++ {
		srv := newWALServer(failfs.OS, dir)
		srv.recovering.Store(true)
		err := srv.recoverState(context.Background(), "")
		if err == nil {
			t.Fatalf("boot %d: recovery with retired logs succeeded", boot)
		}
		if boot == 0 {
			first = err.Error()
			for _, want := range []string{`scenario "s0-retired"`, "seq 10:", `unknown migrator "layereddp"`} {
				if !strings.Contains(first, want) {
					t.Fatalf("refusal does not name %s: %v", want, err)
				}
			}
		} else if err.Error() != first {
			t.Fatalf("boot %d refused differently\n got: %v\nwant: %s", boot, err, first)
		}
		if code, body := get(t, srv.handler(), "/readyz"); code != http.StatusServiceUnavailable {
			t.Fatalf("boot %d: readyz after a refused recovery: %d %s", boot, code, body)
		}
		if got := srv.recoverySeconds.Value(); got != 0 {
			t.Fatalf("boot %d: vnfoptd_recovery_seconds = %v after a refused recovery, want 0", boot, got)
		}
		srv.closeAll()
		srv.closeWALs()
	}
	if after := tree(); !maps.Equal(before, after) {
		t.Fatal("refused recoveries changed the log")
	}
}
