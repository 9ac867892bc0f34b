package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vnfopt/internal/benchmeta"
	"vnfopt/internal/failfs"
	"vnfopt/internal/loadgen"
	"vnfopt/internal/wal"
)

// walBenchReport is the committed artifact (results/BENCH_wal.json): the
// same loadgen workload against three daemons — no WAL, WAL with group
// commit, WAL with per-command fsync — plus the overhead of each WAL
// mode over the baseline on the bulk-ingest path, which is where the
// log cost concentrates (one record per NDJSON line batch).
type walBenchReport struct {
	// Host pins the machine and toolchain the numbers were recorded on.
	Host     benchmeta.Host  `json:"host"`
	Baseline *loadgen.Report `json:"baseline"`
	Interval *loadgen.Report `json:"wal_interval"`
	Always   *loadgen.Report `json:"wal_always"`
	// Bulk-ingest throughput loss vs baseline, in percent (negative
	// means the WAL run was faster — noise).
	IntervalOverheadPct float64 `json:"wal_interval_overhead_pct"`
	AlwaysOverheadPct   float64 `json:"wal_always_overhead_pct"`
}

// walBenchConfig is the shared workload shape for every arm of the
// comparison; only the daemon under test differs.
func walBenchConfig(full bool) loadgen.Config {
	flows := 40
	cfg := loadgen.Config{
		Scenarios:   8,
		Concurrency: 8,
		Flows:       flows,
		Spec: map[string]any{
			"topology": "fat-tree",
			"k":        4,
			"flows":    flows,
			"migrator": "nomigration",
		},
		PerCallRequests: 128,
		PerCallBatch:    1,
		BulkRequests:    4,
		BulkUpdates:     8192,
		ReadRequests:    128,
		Seed:            7,
	}
	if full {
		cfg.Scenarios = 64
		cfg.Concurrency = 32
		cfg.PerCallRequests = 2048
		cfg.BulkRequests = 8
		cfg.BulkUpdates = 65536
		cfg.ReadRequests = 1024
	}
	return cfg
}

// runWALBenchArm runs one arm of the comparison. policy "" means no WAL.
// Every WAL arm includes the crash/restart phase: the filesystem is
// killed mid-flight (every subsequent write fails, as if the process
// had been SIGKILLed), a fresh daemon recovers over the same directory,
// and loadgen accounts for every update the dead daemon acknowledged.
func runWALBenchArm(t *testing.T, cfg loadgen.Config, policy wal.SyncPolicy, withWAL bool) *loadgen.Report {
	t.Helper()
	dir := t.TempDir()
	ffs := failfs.NewFaulty(failfs.OS)

	srv := newServer()
	srv.scenarioMetrics = false
	if withWAL {
		srv.fs = ffs
		srv.walDir = filepath.Join(dir, "wal")
		srv.walOpts = wal.Options{Policy: policy, SyncEvery: 20 * time.Millisecond}
	}
	ts := httptest.NewServer(srv.handler())
	closeFirst := func() {
		ts.Close()
		srv.closeAll()
	}
	defer func() { closeFirst() }()

	// Successor daemon state, populated by the restart hook.
	var (
		srv2   *server
		ts2    *httptest.Server
		recErr = make(chan error, 1)
	)
	if withWAL {
		cfg.Restart = func() (string, error) {
			ffs.Kill() // the disk dies first: nothing in flight may land after this
			closeFirst()
			closeFirst = func() {}
			srv2 = newServer()
			srv2.scenarioMetrics = false
			srv2.fs = failfs.OS
			srv2.walDir = filepath.Join(dir, "wal")
			srv2.walOpts = wal.Options{Policy: policy, SyncEvery: 20 * time.Millisecond}
			srv2.recovering.Store(true)
			ts2 = httptest.NewServer(srv2.handler())
			// Recovery runs behind the 503 gate, exactly as in main().
			go func() { recErr <- srv2.recoverState(context.Background(), "") }()
			return ts2.URL, nil
		}
		defer func() {
			if ts2 != nil {
				ts2.Close()
				srv2.closeAll()
				srv2.closeWALs()
			}
		}()
	}

	cfg.BaseURL = ts.URL
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withWAL {
		if err := <-recErr; err != nil {
			t.Fatalf("recovery after kill: %v", err)
		}
		if rep.Restart == nil || rep.Restart.Error != "" {
			t.Fatalf("restart phase failed: %+v", rep.Restart)
		}
	}
	return rep
}

// TestBenchWAL measures what durability costs and proves what it buys.
// By default it is a smoke run cheap enough for `make check`; the env
// vars VNFOPT_BENCH_FULL / VNFOPT_BENCH_OUT scale it into the committed
// artifact (results/BENCH_wal.json), where the acceptance bar applies:
// bulk ingest under `-wal-sync interval` within 20% of the no-WAL
// baseline. The `always` arm additionally asserts the durability
// contract — a hard kill after the ingest phases loses zero
// acknowledged updates.
func TestBenchWAL(t *testing.T) {
	full := os.Getenv("VNFOPT_BENCH_FULL") != ""
	out := os.Getenv("VNFOPT_BENCH_OUT")
	cfg := walBenchConfig(full)

	rep := &walBenchReport{
		Host:     benchmeta.Collect(),
		Baseline: runWALBenchArm(t, cfg, "", false),
		Interval: runWALBenchArm(t, cfg, wal.SyncInterval, true),
		Always:   runWALBenchArm(t, cfg, wal.SyncAlways, true),
	}
	if base := rep.Baseline.Bulk.UpdatesPerSec; base > 0 {
		rep.IntervalOverheadPct = (1 - rep.Interval.Bulk.UpdatesPerSec/base) * 100
		rep.AlwaysOverheadPct = (1 - rep.Always.Bulk.UpdatesPerSec/base) * 100
	}

	t.Logf("bulk ingest:  baseline %8.0f upd/s", rep.Baseline.Bulk.UpdatesPerSec)
	t.Logf("wal interval: %8.0f upd/s (%+.1f%%)  recovery %.3fs  lost %d",
		rep.Interval.Bulk.UpdatesPerSec, rep.IntervalOverheadPct,
		rep.Interval.Restart.RecoverySeconds, rep.Interval.Restart.LostUpdates)
	t.Logf("wal always:   %8.0f upd/s (%+.1f%%)  recovery %.3fs  lost %d",
		rep.Always.Bulk.UpdatesPerSec, rep.AlwaysOverheadPct,
		rep.Always.Restart.RecoverySeconds, rep.Always.Restart.LostUpdates)

	for name, r := range map[string]*loadgen.Report{
		"baseline": rep.Baseline, "interval": rep.Interval, "always": rep.Always,
	} {
		for phase, p := range map[string]loadgen.Phase{
			"create": r.Create, "percall": r.PerCall, "bulk": r.Bulk, "read": r.Read,
		} {
			if p.Errors != 0 {
				t.Errorf("%s/%s: %d errors, last: %s", name, phase, p.Errors, p.LastError)
			}
		}
		if r.Bulk.UpdatesPerSec <= 0 {
			t.Errorf("%s: no bulk throughput recorded", name)
		}
	}

	// The durability contract: with per-command fsync, acked == durable,
	// so the hard kill between the ingest and read phases loses nothing.
	if lost := rep.Always.Restart.LostUpdates; lost != 0 {
		t.Errorf("wal-always lost %d acknowledged updates across a hard kill", lost)
	}
	if ok, want := rep.Always.Restart.ScenariosOK, cfg.Scenarios; ok != want {
		t.Errorf("wal-always recovered %d/%d scenarios", ok, want)
	}
	if ok, want := rep.Interval.Restart.ScenariosOK, cfg.Scenarios; ok != want {
		t.Errorf("wal-interval recovered %d/%d scenarios", ok, want)
	}

	// The overhead acceptance bar is enforced on the full run; the smoke
	// sizes are too small for a stable ratio.
	if full && rep.IntervalOverheadPct > 20 {
		t.Errorf("wal-interval bulk overhead %.1f%%, want <= 20%%", rep.IntervalOverheadPct)
	}

	if out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wal bench report written to %s\n", out)
	}
}
