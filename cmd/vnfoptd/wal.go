package main

import (
	"context"
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"strings"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/fault"
	"vnfopt/internal/wal"
)

// WAL glue: with -wal set, every mutation — a scenario's create and
// each command after it (command.go) — is appended to the scenario's
// write-ahead log *before* it is applied and acknowledged, so a crash
// between snapshots loses nothing that a client was told succeeded
// (modulo the -wal-sync policy; see docs/RESILIENCE.md). Recovery is
// snapshot + replay: the boot restores the last snapshot, then decodes
// each scenario's logged suffix back into commands and applies them to
// the real engine — the same apply the live request ran. The engine is
// deterministic, so replay lands bit-identically on the pre-crash state
// — including commands that failed (a step that errored errors again,
// changing nothing).
//
// Payload encodings (the log frames and checksums; the daemon owns the
// bytes):
//
//	create  JSON {"id": ..., "spec": {...}}  (spec after defaulting, so
//	        rebuild is deterministic; carries State when resuming)
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

// walMetaFile sits next to a scenario's segments and ties the log to the
// snapshots taken over it. It does not match the *.wal segment pattern,
// so the log layer ignores it.
const walMetaFile = "meta.json"

// walMeta identifies one incarnation of a scenario's log. Gen is stamped
// into every snapshot captured while the log is live; at boot a snapshot
// may only be combined with the log whose generation it recorded —
// anything else (the WAL was toggled off and state advanced un-logged,
// the WAL root was swapped, the scenario was deleted and re-created)
// would replay a log against a state it does not extend.
type walMeta struct {
	Gen string `json:"gen"`
	// SeededFrom is set when the log was seeded over a snapshot that
	// predates the WAL: the SHA-256 of that snapshot file's bytes. It
	// resolves the one legitimate "snapshot has no generation but a log
	// exists" boot: if the loaded snapshot still hashes to SeededFrom, the
	// seed create record (which embeds that exact state) is authoritative
	// and recovery rebuilds from it; any other hash means the snapshot
	// moved on without the log, and recovery refuses.
	SeededFrom string `json:"seeded_from,omitempty"`
}

// newWALGen mints a fresh log-incarnation id.
func newWALGen() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Generations only need to differ across log incarnations.
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// writeWALMeta persists a scenario's meta file atomically. It must be
// durable before the log's first record: a record without a meta file is
// unrecoverable by design (recovery refuses logs it cannot tie to a
// generation).
func (s *server) writeWALMeta(id string, m walMeta) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	path := s.walPath(scenarioDirName(id)) + "/" + walMetaFile
	return failfs.WriteFileAtomic(s.fs, path, b, 0o644)
}

// readWALMeta loads a scenario's meta file; a missing file is a zero
// meta (an empty directory husk from a crashed create).
func (s *server) readWALMeta(id string) (walMeta, error) {
	path := s.walPath(scenarioDirName(id)) + "/" + walMetaFile
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return walMeta{}, nil
		}
		return walMeta{}, err
	}
	var m walMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return walMeta{}, fmt.Errorf("wal meta %s: %w", path, err)
	}
	return m, nil
}

// snapshotHash fingerprints a snapshot file's bytes for the seed
// linkage.
func snapshotHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

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

// appendWAL appends one record to sc's log and advances the scenario's
// applied-seq watermark. It must be called from the scenario's actor
// (or before the scenario is published), so appends are serialized per
// scenario; the caller must not apply or acknowledge the command unless
// it returns nil.
func (sc *scenario) appendWAL(typ wal.Type, payload []byte) error {
	seq, err := sc.wal.Append(typ, payload)
	if err != nil {
		return err
	}
	sc.walSeq = seq
	return nil
}

// startRecovery closes the recovery gate and runs recoverState in the
// background, starting the periodic snapshot loop once it succeeds. The
// gate is closed by the time startRecovery returns — call it before the
// listener starts. The returned channel delivers recoverState's result.
func (s *server) startRecovery(ctx context.Context, snapshotPath string, snapEvery time.Duration) <-chan error {
	s.recovering.Store(true)
	recovered := make(chan error, 1)
	go func() {
		err := s.recoverState(ctx, snapshotPath)
		if err == nil && snapshotPath != "" && snapEvery > 0 {
			go s.snapshotLoop(ctx, snapshotPath, snapEvery)
		}
		recovered <- err
	}()
	return recovered
}

// recoverState drives the boot-time restore: snapshot load, the
// .deleting sweep, and per-scenario WAL replay. ctx aborts the replay
// between records (SIGTERM during a long recovery): segments are left
// exactly as found — recovery never deletes or truncates anything
// beyond the torn tail of the final segment — so the next boot resumes
// from the same log. The server must not serve /v1 traffic until this
// returns nil; main gates that on s.recovering, which is cleared only
// on success — a half-recovered server must never serve, and above all
// must never snapshot (that would capture partial state and compact
// away log records the next recovery still needs).
func (s *server) recoverState(ctx context.Context, snapshotPath string) error {
	restored, snapHash, err := s.loadSnapshot(snapshotPath)
	if err != nil {
		return err
	}
	if !s.walEnabled() {
		s.recovering.Store(false)
		return nil
	}
	if err := s.fs.MkdirAll(s.walDir, 0o755); err != nil {
		return fmt.Errorf("wal root: %w", err)
	}
	entries, err := s.fs.ReadDir(s.walDir)
	if err != nil {
		return fmt.Errorf("wal root: %w", err)
	}
	// Pass 1 — sweep delete tombstones, remembering which ids they
	// retire. A tombstone is the commit point of an acked delete, so the
	// snapshot copy of that scenario is dead: it must not be replayed
	// (pass 2, when the id was re-created) nor kept or re-seeded (pass 3).
	// Sweeping first also means a tombstone that sorts after its id's
	// re-created live directory is still seen in time.
	swept := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, deletingSuffix) {
			continue
		}
		if id, err := scenarioDirID(strings.TrimSuffix(name, deletingSuffix)); err == nil {
			swept[id] = true
		}
		if err := s.fs.RemoveAll(s.walPath(name)); err != nil {
			return fmt.Errorf("sweep %s: %w", name, err)
		}
	}
	// Pass 2 — replay every live scenario log over its snapshot state.
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || strings.HasSuffix(name, deletingSuffix) {
			continue
		}
		id, err := scenarioDirID(name)
		if err != nil {
			return fmt.Errorf("wal dir %q: %w", name, err)
		}
		seen[id] = true
		if err := s.recoverScenario(ctx, id, restored[id], snapHash, swept[id]); err != nil {
			return fmt.Errorf("scenario %q: %w", id, err)
		}
	}
	// Pass 3 — snapshot scenarios without a live WAL directory.
	for id, sc := range restored {
		if seen[id] || sc.wal != nil {
			continue
		}
		if swept[id] {
			// The delete committed after the snapshot was taken; finish it.
			s.scenarios.Delete(id)
			sc.actor.Close()
			continue
		}
		if sc.walGen != "" {
			// The snapshot says this scenario had a log (generation
			// recorded) but the directory is gone: acknowledged records
			// were lost. Refuse rather than silently serve the stale
			// snapshot state.
			return fmt.Errorf("scenario %q: wal directory missing but snapshot records wal generation %s (wrong -wal root?)", id, sc.walGen)
		}
		// First boot with -wal over a pre-WAL snapshot: start the log with
		// a create record carrying the current state, so it can rebuild
		// its scenario from seq 1.
		if err := s.seedScenarioWAL(sc, snapHash); err != nil {
			return fmt.Errorf("scenario %q: seed wal: %w", id, err)
		}
	}
	s.recovering.Store(false)
	return nil
}

// recoverScenario replays one scenario's log. The normal shapes: snapSc
// == nil (the scenario was created after the snapshot — its create
// record is in the log) replays from scratch; snapSc with a recorded
// generation matching the log's replays the suffix past the snapshot's
// applied seq. Two recorded histories discard the snapshot shard and
// rebuild from the log alone: sweptOld (the snapshot-era log was retired
// by an acked delete, so this directory belongs to a re-created
// successor) and a seed log whose SeededFrom still matches the loaded
// snapshot (the boot that seeded it crashed before the next snapshot
// could record the linkage — the seed create record embeds that exact
// state). Every other snapshot/log pairing is refused: replaying a log
// against a state it does not extend would diverge silently.
func (s *server) recoverScenario(ctx context.Context, id string, snapSc *scenario, snapHash string, sweptOld bool) error {
	l, err := s.openScenarioWAL(id)
	if err != nil {
		return err
	}
	meta, err := s.readWALMeta(id)
	if err != nil {
		l.Close()
		return err
	}
	sc := snapSc
	snapSeq := uint64(0)
	rebuilt := false
	switch {
	case snapSc == nil:
		// Created after the snapshot; the log carries its create record.
	case sweptOld:
		sc, rebuilt = nil, true
	case snapSc.walGen != "":
		if meta.Gen != snapSc.walGen {
			l.Close()
			return fmt.Errorf("wal generation mismatch: snapshot records %s, log is %s — the log does not extend this snapshot (wrong -wal root, or the scenario was re-created?); clear the log directory or restore the matching snapshot", snapSc.walGen, orUnset(meta.Gen))
		}
		snapSeq = snapSc.walSeq
	default:
		// The snapshot has no WAL linkage (pre-WAL, or taken with -wal
		// off): only a log seeded from exactly this snapshot may be
		// combined with it.
		if meta.SeededFrom == "" || meta.SeededFrom != snapHash {
			l.Close()
			return fmt.Errorf("snapshot has no wal generation but a log exists (generation %s) — the snapshot advanced without the log (was -wal toggled off and back on?); clear the log directory or restore the matching snapshot", orUnset(meta.Gen))
		}
		sc, rebuilt = nil, true
	}
	replayed := 0
	err = l.Replay(func(rec wal.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rec.Seq <= snapSeq || rec.Type == wal.TypeAnchor {
			return nil // covered by the snapshot / not a command
		}
		replayed++
		next, err := s.replayRecord(id, sc, rec)
		if err != nil {
			return fmt.Errorf("seq %d: %w", rec.Seq, err)
		}
		sc = next
		sc.walSeq = rec.Seq
		return nil
	})
	if err != nil {
		l.Close()
		return err
	}
	if sc == nil {
		// An empty log directory: a create (or a re-seed) that crashed
		// between opening the log and appending its first record. Drop the
		// husk; what happens to the snapshot shard depends on why there is
		// none in the log.
		l.Close()
		if err := s.dropWALDir(id); err != nil {
			return err
		}
		switch {
		case snapSc == nil:
			// The scenario never existed.
			return nil
		case sweptOld:
			// The delete committed; the husk was an aborted re-create.
			// Finish the delete.
			s.scenarios.Delete(id)
			snapSc.actor.Close()
			return nil
		default:
			// An aborted seed (meta durable, create record never landed):
			// the snapshot shard is still authoritative — seed it again.
			return s.seedScenarioWAL(snapSc, snapHash)
		}
	}
	if meta.Gen == "" {
		l.Close()
		return fmt.Errorf("wal log has records but no meta file — cannot tie it to a generation; clear the log directory")
	}
	sc.wal = l
	sc.walGen = meta.Gen
	if replayed > 0 {
		s.log.Info("wal replayed", "scenario", id, "records", replayed)
	}
	s.createMu.Lock()
	if rebuilt && snapSc != nil {
		// The log, not the snapshot, is this id's history: swap the
		// snapshot-built shard out of the registry.
		snapSc.actor.Close()
		s.scenarios.Set(id, sc)
	} else if _, loaded := s.scenarios.Get(id); !loaded {
		s.scenarios.Insert(id, sc)
	}
	s.bumpNextID(id)
	s.createMu.Unlock()
	return nil
}

// orUnset renders a possibly-empty generation for error messages.
func orUnset(gen string) string {
	if gen == "" {
		return "unset"
	}
	return gen
}

// replayRecord applies one logged record during recovery and returns
// the scenario it now describes: a create record builds the scenario
// (sc must still be nil), anything else decodes into the command that
// wrote it and runs that command's apply. Logged commands passed
// validate before they were logged; an apply error reproduces the
// original run's rejection, which changed nothing — exactly what the
// live server answered, so replay ignores it.
func (s *server) replayRecord(id string, sc *scenario, rec wal.Record) (*scenario, error) {
	if rec.Type == wal.TypeCreate {
		if sc != nil {
			return nil, fmt.Errorf("create record for an existing scenario")
		}
		var c walCreate
		if err := json.Unmarshal(rec.Payload, &c); err != nil {
			return nil, fmt.Errorf("create payload: %w", err)
		}
		if c.ID != id {
			return nil, fmt.Errorf("create record for %q in log of %q", c.ID, id)
		}
		built, err := s.buildScenario(id, c.Spec)
		if err != nil {
			return nil, fmt.Errorf("rebuild: %w", err)
		}
		return built, nil
	}
	c, err := decodeCommand(rec.Type, rec.Payload)
	if err != nil {
		return nil, err
	}
	if sc == nil {
		return nil, fmt.Errorf("%s record before create", rec.Type)
	}
	_ = c.apply(sc.eng)
	return sc, nil
}

// startScenarioWAL begins a log incarnation for the still-unpublished
// sc: a fresh generation, then a create record carrying spec as record
// 1. The meta file is made durable before that record — recovery
// refuses records it cannot tie to a generation. On failure sc is left
// without a log; the directory husk is the caller's to drop or keep.
func (s *server) startScenarioWAL(sc *scenario, spec *ScenarioSpec, seededFrom string) error {
	payload, err := json.Marshal(walCreate{ID: sc.ID, Spec: spec})
	if err != nil {
		return err
	}
	l, err := s.openScenarioWAL(sc.ID)
	if err != nil {
		return err
	}
	sc.wal, sc.walGen = l, newWALGen()
	err = s.writeWALMeta(sc.ID, walMeta{Gen: sc.walGen, SeededFrom: seededFrom})
	if err == nil {
		err = sc.appendWAL(wal.TypeCreate, payload)
	}
	if err != nil {
		sc.wal, sc.walGen = nil, ""
		l.Close()
	}
	return err
}

// seedScenarioWAL starts a log for a scenario that predates the WAL:
// its create record carries the full current state, and its meta file
// the hash of the snapshot being seeded over, so a crash between
// seeding and the next snapshot is recoverable — the next boot sees the
// same snapshot hash, trusts the seed create record, and rebuilds from
// it.
func (s *server) seedScenarioWAL(sc *scenario, snapHash string) error {
	blob, err := sc.eng.MarshalState()
	if err != nil {
		return err
	}
	spec := *sc.Spec
	spec.State = blob
	return s.startScenarioWAL(sc, &spec, snapHash)
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
