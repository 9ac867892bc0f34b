package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/migration"
	"vnfopt/internal/wal"
)

// Regression suite for the snapshot↔WAL pairing rules: which logs a
// boot may replay over which snapshots (generation tie, seed linkage),
// how committed deletes interact with older snapshots, and the
// durability of the delete acknowledgement itself.

// bootWAL runs a fresh recovery over dir and returns the server.
func bootWAL(t *testing.T, dir, snap string) *server {
	t.Helper()
	srv := newWALServer(failfs.OS, dir)
	srv.recovering.Store(true)
	if err := srv.recoverState(context.Background(), snap); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return srv
}

// TestSeedCrashThenReboot: enabling -wal over a pre-WAL snapshot seeds
// each scenario's log with a create record; a crash before the next
// snapshot used to make every later boot fail ("create record for an
// existing scenario") because the old snapshot still carried wal_seq 0.
// Now the seed linkage (meta.seeded_from == hash of the loaded
// snapshot) tells recovery to trust the seed record and rebuild from
// the log alone.
func TestSeedCrashThenReboot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")

	// Era 1: no WAL; workload, then a plain snapshot.
	srv := newServer()
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := post(t, h, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 15}}, Step: true}); code != http.StatusOK {
		t.Fatal("ingest")
	}
	if err := srv.saveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv.closeAll()

	// Era 2: first boot with -wal. Recovery seeds the log, more commands
	// append to it, and then the process dies before any new snapshot.
	srv2 := bootWAL(t, dir, snap)
	h2 := srv2.handler()
	if code := post(t, h2, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 1, Rate: 4}}, Step: true}); code != http.StatusOK {
		t.Fatal("post-seed ingest")
	}
	want := normalizedState(t, srv2, "c1")
	srv2.closeAll()
	srv2.closeWALs() // crash: no snapshot taken, old snapshot still has wal_seq 0

	// Era 3: boot again over the stale snapshot + seeded log.
	srv3 := bootWAL(t, dir, snap)
	if got := normalizedState(t, srv3, "c1"); got != want {
		t.Fatalf("seed-crash recovery diverges\n got: %.200s\nwant: %.200s", got, want)
	}
	// The rebuilt shard must be the one the registry serves.
	if code := post(t, srv3.handler(), "POST", "/v1/scenarios/c1/step", nil); code != http.StatusOK {
		t.Fatal("step after seed-crash recovery")
	}
	srv3.closeAll()
	srv3.closeWALs()
}

// TestWALToggleRefused: running with -wal, then without it (the
// snapshot advances past the log), then with -wal again must refuse to
// boot instead of silently replaying the stale log over newer state.
func TestWALToggleRefused(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")

	// Era 1: WAL on; snapshot records the log's generation.
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if err := srv.saveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv.closeAll()
	srv.closeWALs()

	// Era 2: WAL off; state advances un-logged and is snapshotted
	// (wal_seq/wal_gen dropped).
	srv2 := newServer()
	srv2.recovering.Store(true)
	if err := srv2.recoverState(context.Background(), snap); err != nil {
		t.Fatalf("no-wal recovery: %v", err)
	}
	h2 := srv2.handler()
	if code := post(t, h2, "POST", "/v1/scenarios/c1/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 2, Rate: 9}}, Step: true}); code != http.StatusOK {
		t.Fatal("no-wal ingest")
	}
	if err := srv2.saveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv2.closeAll()

	// Era 3: WAL on again — the log does not extend this snapshot.
	srv3 := newWALServer(failfs.OS, dir)
	srv3.recovering.Store(true)
	err := srv3.recoverState(context.Background(), snap)
	if err == nil {
		t.Fatal("boot combined a stale wal with a newer snapshot")
	}
	if !strings.Contains(err.Error(), "toggled") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
	if !srv3.recovering.Load() {
		t.Fatal("recovering flag cleared by a refused recovery")
	}
}

// TestGenerationMismatchRefused: a snapshot that names one generation
// must not replay a log of another (e.g. the -wal root was swapped).
func TestGenerationMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if err := srv.saveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv.closeAll()
	srv.closeWALs()

	// Forge a different generation into the scenario's meta file.
	meta := filepath.Join(dir, "wal", "c1", walMetaFile)
	if err := os.WriteFile(meta, []byte(`{"gen":"deadbeef"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(failfs.OS, dir)
	srv2.recovering.Store(true)
	err := srv2.recoverState(context.Background(), snap)
	if err == nil || !strings.Contains(err.Error(), "generation mismatch") {
		t.Fatalf("want generation mismatch refusal, got %v", err)
	}
}

// TestWALDirMissingWithGenRefused: the snapshot says the scenario had a
// log, but the directory is gone — acknowledged records were lost, and
// the boot must say so instead of serving the stale snapshot.
func TestWALDirMissingWithGenRefused(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if err := srv.saveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv.closeAll()
	srv.closeWALs()
	if err := os.RemoveAll(filepath.Join(dir, "wal", "c1")); err != nil {
		t.Fatal(err)
	}

	srv2 := newWALServer(failfs.OS, dir)
	srv2.recovering.Store(true)
	err := srv2.recoverState(context.Background(), snap)
	if err == nil || !strings.Contains(err.Error(), "wal directory missing") {
		t.Fatalf("want missing-directory refusal, got %v", err)
	}
}

// TestDeleteCommittedNoResurrect: a delete whose tombstone rename
// committed but whose collection crashed must stay deleted at the next
// boot even when an older snapshot still carries the scenario.
func TestDeleteCommittedNoResurrect(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")
	srv := newWALServer(failfs.OS, dir)
	h := srv.handler()
	if code := post(t, h, "POST", "/v1/scenarios", crashSpec()); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if err := srv.saveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv.closeAll()
	srv.closeWALs()
	// Crash between the delete's rename (commit point) and its RemoveAll.
	if err := os.Rename(filepath.Join(dir, "wal", "c1"), filepath.Join(dir, "wal", "c1"+deletingSuffix)); err != nil {
		t.Fatal(err)
	}

	srv2 := bootWAL(t, dir, snap)
	if srv2.scenarios.Len() != 0 {
		t.Fatalf("committed delete resurrected: %d scenarios", srv2.scenarios.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "c1"+deletingSuffix)); !os.IsNotExist(err) {
		t.Fatalf("tombstone not swept: %v", err)
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
	snap := filepath.Join(dir, "snap.json")
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

	srv2 := bootWAL(t, dir, snap)
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
	srv2 := bootWAL(t, dir, filepath.Join(dir, "snap.json"))
	if srv2.scenarios.Len() != 0 {
		t.Fatalf("deleted scenario resurrected after retried delete")
	}
}

// TestRemovedSearchWorkersStillLoads: search_workers left the scenario
// spec, so a live create that sends it is refused like any unknown
// field — but the create records and snapshots an older daemon wrote
// with it must still boot (they decode leniently), and their exhaustive
// migrator steps on the one search that is left.
func TestRemovedSearchWorkersStillLoads(t *testing.T) {
	const oldSpec = `{"search_workers":2,"k":4,"flows":10,"seed":3,"sfc_len":3,"migrator":"exhaustive","node_budget":50000`

	live := newServer()
	defer live.closeAll()
	if code := post(t, live.handler(), "POST", "/v1/scenarios", json.RawMessage(oldSpec+`}`)); code != http.StatusBadRequest {
		t.Fatalf("live create with search_workers: HTTP %d, want 400", code)
	}

	stepsExhaustive := func(t *testing.T, srv *server, wantEpoch int) {
		t.Helper()
		sc := srv.get("old")
		if sc == nil {
			t.Fatal("scenario not recovered")
		}
		if got := sc.eng.MigratorName(); got != "Exhaustive" {
			t.Fatalf("recovered migrator %q, want Exhaustive", got)
		}
		before := migration.SearchExpansions()
		if code := post(t, srv.handler(), "POST", "/v1/scenarios/old/step", nil); code != http.StatusOK {
			t.Fatalf("step after recovery: HTTP %d", code)
		}
		if migration.SearchExpansions() == before {
			t.Fatal("step after recovery ran no exact search")
		}
		if got := sc.eng.Snapshot().Epoch; got != wantEpoch {
			t.Fatalf("epoch %d after recovery + one step, want %d", got, wantEpoch)
		}
	}

	t.Run("create record", func(t *testing.T) {
		dir := t.TempDir()
		logDir := filepath.Join(dir, "wal", scenarioDirName("old"))
		l, err := wal.Open(logDir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(wal.TypeCreate, []byte(`{"id":"old","spec":`+oldSpec+`}}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(wal.TypeStep, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir, walMetaFile), []byte(`{"gen":"old-gen"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		srv := bootWAL(t, dir, filepath.Join(dir, "no-snapshot.json"))
		defer srv.closeWALs()
		defer srv.closeAll()
		stepsExhaustive(t, srv, 2)
	})

	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		snap := filepath.Join(dir, "snap.json")
		if err := os.WriteFile(snap, []byte(`[{"id":"old","spec":`+oldSpec+`}}]`), 0o644); err != nil {
			t.Fatal(err)
		}
		srv := bootWAL(t, dir, snap)
		defer srv.closeWALs()
		defer srv.closeAll()
		stepsExhaustive(t, srv, 1)
	})
}
