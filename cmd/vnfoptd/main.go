// Command vnfoptd is the online control-plane daemon: it hosts online
// placement engines (internal/engine) for any number of scenarios behind
// an HTTP/JSON API, turning the paper's periodically-executed TOM into a
// long-running service.
//
// The control plane is sharded: each scenario is an actor — a run-loop
// goroutine owning its engine and consuming a bounded mailbox of
// ingest/step/fault commands — and scenario lookup is a lock-free
// copy-on-write registry, so no request ever contends on a server-wide
// lock. A full mailbox answers 429 with Retry-After (backpressure);
// streaming bulk ingest is instead flow-controlled to the shard's drain
// rate.
//
// Usage:
//
//	vnfoptd -addr :8080 -wal /var/lib/vnfoptd/wal
//
// API (see docs/API.md for the full reference and a curl session):
//
//	POST   /v1/scenarios                  create (or resume) a scenario
//	GET    /v1/scenarios                  list scenarios (limit/offset/status)
//	DELETE /v1/scenarios/{id}             drop a scenario (drains its mailbox)
//	POST   /v1/scenarios/{id}/rates       ingest rate deltas (optional step)
//	POST   /v1/scenarios/{id}/rates:bulk  streamed bulk ingest (NDJSON only)
//	POST   /v1/scenarios/{id}/step        close the epoch / run the TOM loop
//	POST   /v1/scenarios/{id}/faults      inject/heal topology faults (repair)
//	GET    /v1/scenarios/{id}/faults      active faults + unserved flows
//	GET    /v1/scenarios/{id}/placement   lock-free placement snapshot
//	GET    /v1/scenarios/{id}/state       durable engine state (JSON)
//	GET    /v1/scenarios/{id}/metrics     per-scenario engine counters (JSON)
//	GET    /v1/scenarios/{id}/events      bounded event ring (migrations, errors)
//	GET    /metrics                       Prometheus text exposition
//	GET    /healthz                       liveness + build identification
//	GET    /readyz                        readiness (503 while any scenario is degraded)
//	GET    /debug/pprof/*                 profiling (only with -pprof)
//
// Without -wal the daemon keeps everything in memory. With it, each
// scenario's log directory under the WAL root is that scenario's whole
// durable state: every mutation is logged before it is acknowledged, and
// the next boot replays the logs. Every -snapshot-every, and once more
// on SIGTERM/SIGINT after in-flight requests have drained (bounded by
// -drain), each scenario that moved since its last checkpoint appends
// one to its log — its full engine state — and the log drops everything
// older, so replay time follows the checkpoint interval, not the
// scenario's age. A checkpoint waits for an epoch boundary: updates
// ingested and not yet stepped exist only in the log. -snapshot names a state file written by an older
// build; it is imported into the logs once and renamed to *.imported.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vnfopt/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		snapshot   = flag.String("snapshot", "", "state file of an older build to import into the WAL once (requires -wal; renamed to FILE.imported, absent = nothing to do)")
		snapEvery  = flag.Duration("snapshot-every", time.Minute, "checkpoint interval: how often a scenario's log is cut down to its current state (requires -wal; 0 disables)")
		walDir     = flag.String("wal", "", "write-ahead log root directory (empty = no WAL); every mutating command is logged before it is acknowledged")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: always (durable per command), interval (group commit), or os (page cache)")
		walSyncEvy = flag.Duration("wal-sync-every", 50*time.Millisecond, "group-commit window for -wal-sync interval")
		walSegment = flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation size")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		pprofFlag  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel   = flag.String("log-level", "info", "slog level: debug, info, warn, or error")
		mailbox    = flag.Int("mailbox", defaultMailboxCap, "per-scenario command mailbox capacity (backpressure bound)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "vnfoptd: -log-level: %v\n", err)
		os.Exit(2)
	}

	srv := newServer()
	srv.log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	srv.pprofOpen = *pprofFlag
	if *mailbox > 0 {
		srv.mailboxCap = *mailbox
	}
	if *snapshot != "" && *walDir == "" {
		fmt.Fprintln(os.Stderr, "vnfoptd: -snapshot imports a state file into the write-ahead log and needs -wal; without -wal nothing is persisted")
		os.Exit(2)
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnfoptd: -wal-sync: %v\n", err)
			os.Exit(2)
		}
		srv.walDir = *walDir
		srv.walOpts = wal.Options{Policy: policy, SyncEvery: *walSyncEvy, SegmentBytes: *walSegment}
	}

	// The timeouts harden the listener against slow-loris clients and
	// stuck connections; request bodies are additionally bounded per
	// route with http.MaxBytesReader.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	loopCtx, loopCancel := context.WithCancel(context.Background())
	defer loopCancel()
	// Recovery (WAL replay) runs while the listener is up: /healthz
	// answers immediately, /readyz and the /v1 surface answer 503
	// "recovering" until it finishes. The gate is closed before the
	// listener exists, so no request can slip in ahead of it.
	// SIGTERM during a long replay cancels it cleanly between records.
	recovered := srv.startRecovery(loopCtx, *snapshot, *snapEvery)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("vnfoptd: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	for {
		select {
		case err := <-errCh:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "vnfoptd: %v\n", err)
				os.Exit(1)
			}
			return
		case err := <-recovered:
			if err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "vnfoptd: recover: %v\n", err)
				os.Exit(1)
			}
			recovered = nil // recovery settled; keep waiting for a signal
		case s := <-sig:
			fmt.Printf("vnfoptd: %v, draining\n", s)
			loopCancel()
			if recovered != nil {
				// Wait for the aborted recovery so nothing races the
				// shutdown below; the WAL is left exactly as found and
				// the next boot resumes from it.
				if err := <-recovered; err != nil && !errors.Is(err, context.Canceled) {
					fmt.Fprintf(os.Stderr, "vnfoptd: recover: %v\n", err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			if err := httpSrv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "vnfoptd: drain: %v\n", err)
			}
			cancel()
			// Every in-flight request is done: queue one last checkpoint per
			// scenario, then drain and stop the run loops. An incomplete
			// recovery must not checkpoint — it would capture partial state
			// and drop records the next boot still needs.
			if err := srv.checkpointAll(); err != nil {
				fmt.Printf("vnfoptd: shutdown during recovery; durable state left as found\n")
			}
			srv.closeAll()
			srv.closeWALs()
			return
		}
	}
}
