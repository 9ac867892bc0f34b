package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/parallel"
	"vnfopt/internal/shard"
	"vnfopt/internal/wal"
)

// WAL glue: with -wal set, a scenario's log directory is its whole
// durable state. Every mutation is a command (command.go) — a scenario's
// create, then each ingest, step and faults after it — and its record is
// appended to the scenario's write-ahead log *before* it is applied and
// acknowledged, so a crash loses nothing that a client was told
// succeeded (modulo the -wal-sync policy; see docs/RESILIENCE.md). A
// create record is fsynced under every policy. A checkpoint is one more
// create record, carrying the full engine state, after which the log
// drops everything older. Recovery is replay: the boot decodes every
// record back into its command and runs it with no log attached — the
// same run the live request took, a create record (re)building the
// engine. The engine is deterministic, so replay lands bit-identically
// on the pre-crash state — including commands that failed (a step that
// errored errors again, changing nothing).
//
// Payload encodings (the log frames and checksums; the daemon owns the
// bytes):
//
//	create  JSON {"id": ..., "spec": {...}}  (spec after defaulting, so
//	        rebuild is deterministic; carries State when resuming and
//	        in every checkpoint)
//	ingest  u32 LE count, then per update u32 LE flow, f64 LE rate
//	step    empty
//	faults  JSON {"inject": [...], "heal": [...]}

// walCreate is the TypeCreate payload.
type walCreate struct {
	ID   string        `json:"id"`
	Spec *ScenarioSpec `json:"spec"`
}

// walFaults is the TypeFaults payload.
type walFaults struct {
	Inject []fault.Fault `json:"inject,omitempty"`
	Heal   []fault.Fault `json:"heal,omitempty"`
}

// encodeRates packs an accepted batch as the TypeIngest payload: a
// fixed 12-byte little-endian cell per update. The binary form keeps
// the WAL overhead of the bulk path proportional to the update count,
// not to the NDJSON text it arrived as.
func encodeRates(updates []engine.RateUpdate) []byte {
	buf := make([]byte, 4+12*len(updates))
	binary.LittleEndian.PutUint32(buf, uint32(len(updates)))
	off := 4
	for _, u := range updates {
		binary.LittleEndian.PutUint32(buf[off:], uint32(u.Flow))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(u.Rate))
		off += 12
	}
	return buf
}

// decodeRates is the replay-side inverse of encodeRates.
func decodeRates(payload []byte) ([]engine.RateUpdate, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("ingest payload too short (%d bytes)", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+12*n {
		return nil, fmt.Errorf("ingest payload: %d bytes for %d updates", len(payload), n)
	}
	updates := make([]engine.RateUpdate, n)
	off := 4
	for i := range updates {
		updates[i].Flow = int(int32(binary.LittleEndian.Uint32(payload[off:])))
		updates[i].Rate = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+4:]))
		off += 12
	}
	return updates, nil
}

// scenarioDirName maps a scenario id to its WAL directory name.
// PathEscape keeps separators and other filesystem-hostile bytes out;
// "." and ".." (which PathEscape passes through) are forced into escaped
// forms so an id can never walk out of the WAL root. A trailing
// ".deleting" (also passed through by PathEscape) is force-escaped too:
// a live scenario directory must never collide with the delete-tombstone
// namespace, or the boot sweep would destroy its acknowledged records.
// PathEscape never emits "%2E" itself ('.' is unreserved), so the forced
// form cannot collide with any other id's escape.
func scenarioDirName(id string) string {
	switch id {
	case ".":
		return "%2E"
	case "..":
		return "%2E%2E"
	}
	name := url.PathEscape(id)
	if strings.HasSuffix(name, deletingSuffix) {
		name = name[:len(name)-len(deletingSuffix)] + "%2E" + deletingSuffix[1:]
	}
	return name
}

// scenarioDirID is the inverse of scenarioDirName, for the boot scan.
func scenarioDirID(name string) (string, error) {
	return url.PathUnescape(name)
}

// deletingSuffix marks a scenario WAL directory whose scenario was
// deleted: the rename is the atomic commit point of the deletion, the
// RemoveAll after it is garbage collection, and the boot scan sweeps any
// leftovers — so a crash mid-delete can never resurrect the scenario.
const deletingSuffix = ".deleting"

// walEnabled reports whether the daemon runs with a write-ahead log.
func (s *server) walEnabled() bool { return s.walDir != "" }

// openScenarioWAL opens (creating if needed) the log for one scenario.
// Returns (nil, nil) when the WAL is disabled.
func (s *server) openScenarioWAL(id string) (*wal.Log, error) {
	if !s.walEnabled() {
		return nil, nil
	}
	opts := s.walOpts
	opts.FS = s.fs
	opts.Metrics = s.walMetrics
	return wal.Open(s.walPath(scenarioDirName(id)), opts)
}

// walPath joins a directory name onto the WAL root.
func (s *server) walPath(name string) string {
	return strings.TrimSuffix(s.walDir, "/") + "/" + name
}

// appendWAL writes c's record to sc's log. A create record — a create
// or a checkpoint — goes through Checkpoint: it starts a fresh segment,
// is fsynced under every -wal-sync policy and lets the log drop the
// segments before it. Every other record is appended, synced as
// -wal-sync says, and marks the log as grown past its last create
// record. It must be called from the scenario's actor (or before the
// scenario is published), so appends are serialized per scenario; the
// caller must not apply or acknowledge the command unless it returns
// nil.
func (sc *scenario) appendWAL(c command) error {
	payload, err := c.encode()
	if err != nil {
		return err
	}
	typ := c.walType()
	if typ == wal.TypeCreate {
		err = sc.wal.Checkpoint(typ, payload)
	} else {
		_, err = sc.wal.Append(typ, payload)
	}
	if err == nil {
		sc.dirty = typ != wal.TypeCreate
	}
	return err
}

// checkpoint appends sc's whole state as a create record and lets the
// log drop everything before it, so the log stays proportional to the
// traffic since the last checkpoint rather than to the scenario's
// lifetime. A scenario that has appended nothing since its create or
// last checkpoint is left alone. It must run on sc's actor: (state,
// position in the log) is one atomic pair. A failure is a failed append
// (docs/RESILIENCE.md, footnote 1); the log stays correct, just longer.
//
// Only a settled engine is checkpointed: its state leaves out updates
// that were ingested but not yet stepped, and dropping their ingest
// records would lose acknowledged writes. Until then the checkpoint is
// owed, and run takes it at the next epoch boundary; a scenario that
// never closes another epoch keeps its log whole.
func (sc *scenario) checkpoint() error {
	if sc.wal == nil || !sc.dirty {
		return nil
	}
	if sc.owed = !sc.eng.Settled(); sc.owed {
		return nil
	}
	blob, err := sc.eng.MarshalState()
	if err != nil {
		return err
	}
	spec := *sc.Spec
	spec.State = blob
	return sc.appendWAL(&createCmd{id: sc.ID, spec: &spec})
}

// offerCheckpoint is checkpoint where nobody waits for the outcome: a
// checkpoint round, and the epoch boundary that takes an owed one.
func (sc *scenario) offerCheckpoint() {
	if err := sc.checkpoint(); err != nil {
		sc.log.Error("checkpoint failed", slog.String("scenario", sc.ID), slog.Any("err", err))
	}
}

// checkpointAll offers every scenario a checkpoint on its own actor and
// does not wait for them: a wedged scenario delays only its own. A full
// mailbox skips the scenario until the next round; a closed actor means
// it was deleted. Refused while recovery is incomplete — a checkpoint of
// a half-replayed engine would drop records the next boot still needs.
func (s *server) checkpointAll() error {
	if s.recovering.Load() {
		return fmt.Errorf("checkpoint refused: recovery in progress")
	}
	s.scenarios.Range(func(id string, sc *scenario) bool {
		if err := sc.actor.Submit(sc.offerCheckpoint); err != nil && !errors.Is(err, shard.ErrClosed) {
			s.log.Warn("checkpoint skipped", slog.String("scenario", id), slog.Any("err", err))
		}
		return true
	})
	return nil
}

// startRecovery closes the recovery gate and runs recoverState in the
// background, starting the periodic checkpoint loop once it succeeds.
// The gate is closed by the time startRecovery returns — call it before
// the listener starts. The returned channel delivers recoverState's
// result.
func (s *server) startRecovery(ctx context.Context, importPath string, checkpointEvery time.Duration) <-chan error {
	s.recovering.Store(true)
	recovered := make(chan error, 1)
	go func() {
		err := s.recoverState(ctx, importPath)
		if err == nil && s.walEnabled() && checkpointEvery > 0 {
			go s.checkpointLoop(ctx, checkpointEvery)
		}
		recovered <- err
	}()
	return recovered
}

// checkpointLoop checkpoints every scenario that moved since its last
// one, every interval, until ctx is cancelled.
func (s *server) checkpointLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = s.checkpointAll() // the gate is open: the loop starts after recovery
		}
	}
}

// recoverState drives the boot-time restore: the .deleting sweep, one
// replay per scenario directory, and the one-shot import of a pre-WAL
// state file (importPath, "" = none). Scenario logs are independent:
// they replay concurrently, at most GOMAXPROCS at a time, each in seq
// order, and a failing one stops none of the others. The error returned
// is the first failing directory's in ReadDir order, so a failed boot
// names the same scenario however the replays were scheduled. ctx aborts
// every replay between records (SIGTERM during a long recovery), and a
// replay not yet started does not start: segments are left exactly as
// found — recovery never deletes or truncates anything beyond the torn
// tail of the final segment — so the next boot resumes from the same
// log. The import runs after every replay has returned. The server must
// not serve /v1 traffic until this returns nil; main gates that on
// s.recovering, which is cleared only on success — a half-recovered
// server must never serve, and above all must never checkpoint (that
// would capture partial state and compact away log records the next
// recovery still needs).
func (s *server) recoverState(ctx context.Context, importPath string) error {
	start := time.Now()
	if !s.walEnabled() {
		s.openGate(start)
		return nil
	}
	if err := s.fs.MkdirAll(s.walDir, 0o755); err != nil {
		return fmt.Errorf("wal root: %w", err)
	}
	entries, err := s.fs.ReadDir(s.walDir)
	if err != nil {
		return fmt.Errorf("wal root: %w", err)
	}
	// A tombstone is the commit point of an acked delete and retired the
	// only copy of its scenario: collect what a crash left of it. Sweeping
	// first means a tombstone can never be mistaken for a live directory.
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, deletingSuffix) {
			if err := s.fs.RemoveAll(s.walPath(name)); err != nil {
				return fmt.Errorf("sweep %s: %w", name, err)
			}
		}
	}
	var dirs []string
	for _, e := range entries {
		if name := e.Name(); e.IsDir() && !strings.HasSuffix(name, deletingSuffix) {
			dirs = append(dirs, name)
		}
	}
	err = parallel.ForEach(len(dirs), 0, func(i int) error {
		id, err := scenarioDirID(dirs[i])
		if err != nil {
			return fmt.Errorf("wal dir %q: %w", dirs[i], err)
		}
		if err = ctx.Err(); err == nil {
			err = s.recoverScenario(ctx, id)
		}
		if err != nil {
			return fmt.Errorf("scenario %q: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if importPath != "" {
		if err := s.importLegacyState(importPath); err != nil {
			return err
		}
	}
	s.openGate(start)
	return nil
}

// openGate ends a successful recovery that began at start: it records
// the boot's recovery wall time and lets /v1 and /readyz through.
func (s *server) openGate(start time.Time) {
	s.recoverySeconds.Set(time.Since(start).Seconds())
	s.recovering.Store(false)
}

// recoverScenario replays one scenario's log: every record decodes into
// the command that wrote it, run on the unpublished scenario with no log
// attached — the same run a live request takes. A create behind other
// records is a checkpoint: it installs a new engine, superseding
// everything before it — normally the log has already dropped all that,
// and a crash between a checkpoint's fsync and the removal of the older
// segments is the one way to see both. Logged commands passed validate
// before they were logged; a refusal or failure reproduces the original
// run's, which changed nothing — exactly what the live server answered,
// so replay ignores it. A create that cannot be built fails the boot,
// and so does a log that never gets to a create, naming its first record.
func (s *server) recoverScenario(ctx context.Context, id string) error {
	l, err := s.openScenarioWAL(id)
	if err != nil {
		return err
	}
	sc := s.newScenario(id)
	orphan := "" // the first record, while no create has been seen
	err = l.Replay(func(rec wal.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch {
		case sc.eng == nil && rec.Type != wal.TypeCreate:
			if orphan == "" {
				orphan = fmt.Sprintf("seq %d: first record is %s, not create", rec.Seq, rec.Type)
			}
			return nil
		case rec.Type == wal.TypeAnchor:
			return nil // an older build's compaction marker, not a command
		}
		c, err := decodeCommand(rec.Type, rec.Payload)
		if err != nil {
			return fmt.Errorf("seq %d: %w", rec.Seq, err)
		}
		if err := sc.run(c); err != nil && rec.Type == wal.TypeCreate {
			return fmt.Errorf("seq %d: %w", rec.Seq, err)
		}
		sc.dirty = rec.Type != wal.TypeCreate
		return nil
	})
	if err == nil && sc.eng == nil && orphan != "" {
		err = fmt.Errorf("%s — the log was compacted by an older build; see docs/RESILIENCE.md", orphan)
	}
	if err != nil || sc.eng == nil {
		l.Close()
		sc.actor.Close()
		if err != nil {
			return err
		}
		// An empty log directory: a create (or an import) that crashed
		// between opening the log and appending its first record. The
		// scenario never existed; drop the husk.
		return s.dropWALDir(id)
	}
	sc.wal = l
	s.createMu.Lock()
	s.scenarios.Insert(id, sc)
	s.bumpNextID(id)
	s.createMu.Unlock()
	return nil
}

// importLegacyState is the one-shot import of a state file written by a
// build that kept a daemon-wide snapshot next to the logs (-snapshot):
// every scenario in it that has no log directory gets one, seeded with a
// create record carrying the file's state — fsynced under every -wal-sync
// policy, so the rename below can never outlive it. An id whose log exists
// is skipped — the log is that scenario's history. The file is then renamed
// to path + ".imported", before the recovery gate opens, so a later
// delete can never be undone by a re-import; a crash before the rename
// re-runs the import, which skips what it already seeded. An absent file
// is a no-op.
func (s *server) importLegacyState(path string) error {
	data, err := s.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var in []struct {
		ID     string        `json:"id"`
		Spec   *ScenarioSpec `json:"spec"`
		WalGen string        `json:"wal_gen"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("import %s: %w", path, err)
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	for _, ps := range in {
		if s.get(ps.ID) != nil {
			continue
		}
		if ps.WalGen != "" {
			// The file says this scenario had a log, and it is gone:
			// acknowledged records were lost. Refuse rather than silently
			// serve the older state.
			return fmt.Errorf("import %s: scenario %q: wal directory missing but the state file records wal generation %s (wrong -wal root?)", path, ps.ID, ps.WalGen)
		}
		sc, err := s.create(ps.ID, ps.Spec)
		if err != nil {
			return fmt.Errorf("import %s: scenario %q: %w", path, ps.ID, err)
		}
		s.scenarios.Insert(ps.ID, sc)
		s.bumpNextID(ps.ID)
	}
	if err := s.fs.Rename(path, path+".imported"); err != nil {
		return fmt.Errorf("import %s: %w", path, err)
	}
	return s.fs.SyncDir(filepath.Dir(path))
}

// dropWALDir atomically retires a scenario's WAL directory: the rename
// commits the deletion, the RemoveAll collects it, and the boot sweep
// collects it if we crash in between.
func (s *server) dropWALDir(id string) error {
	dir := s.walPath(scenarioDirName(id))
	tomb := dir + deletingSuffix
	// A leftover tombstone from an earlier half-finished delete of the
	// same id would block the rename; collect it first.
	_ = s.fs.RemoveAll(tomb)
	if err := s.fs.Rename(dir, tomb); err != nil {
		return err
	}
	_ = s.fs.SyncDir(s.walDir)
	return s.fs.RemoveAll(tomb)
}
