package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/obs"
	"vnfopt/internal/shard"
	"vnfopt/internal/wal"
)

// command is one logged mutation of a scenario — the only way the daemon
// builds or changes an engine. A live request builds a command and
// submits it to its scenario's actor, where run takes it through
// validate → log → apply; boot replay decodes the same command back out
// of the log and runs it with no log attached. A command keeps its
// result for the handler that built it.
type command interface {
	walType() wal.Type
	// encode is the WAL payload (see the table in wal.go); decodeCommand
	// is its inverse.
	encode() ([]byte, error)
	// validate runs before the record is logged: what it rejects never
	// enters the log, so every logged command replays cleanly.
	validate(*scenario) error
	// apply executes the command. By the engine's contract a failed
	// apply changed nothing, and it fails again the same way on replay.
	apply(*scenario) error
}

// refused marks a command the engine turned down (422): it failed
// validate, or apply rejected it.
type refused struct{ error }

func (r refused) Unwrap() error { return r.error }

// createCmd builds a scenario's engine from its spec. Its record is
// the first a live create or an import writes, and every checkpoint is
// one more, whose spec carries the engine's state. validate builds the
// engine, once; apply installs it on the scenario, which is not yet
// published — so sc.eng, sc.Spec and sc.events are read without a lock.
type createCmd struct {
	id     string
	spec   *ScenarioSpec
	eng    *engine.Engine
	events *obs.EventLog
}

func (c *createCmd) walType() wal.Type { return wal.TypeCreate }

// encode runs after validate, so the record holds the spec with its
// defaults filled in and a rebuild is deterministic.
func (c *createCmd) encode() ([]byte, error) {
	return json.Marshal(walCreate{ID: c.id, Spec: c.spec})
}

func (c *createCmd) validate(sc *scenario) (err error) {
	switch {
	case c.eng != nil:
		return nil
	case c.id != sc.ID:
		return fmt.Errorf("create record for %q in log of %q", c.id, sc.ID)
	case c.spec == nil:
		return errors.New("no spec")
	}
	c.events = obs.NewEventLog(0)
	c.eng, err = buildEngine(c.spec, sc.reg, engine.NewObserver(sc.reg, c.events, c.id))
	return err
}

func (c *createCmd) apply(sc *scenario) error {
	sc.Spec, sc.eng, sc.events = c.spec, c.eng, c.events
	return nil
}

type ingestCmd struct {
	updates []engine.RateUpdate
	res     engine.IngestResult
}

func (c *ingestCmd) walType() wal.Type       { return wal.TypeIngest }
func (c *ingestCmd) encode() ([]byte, error) { return encodeRates(c.updates), nil }

func (c *ingestCmd) validate(sc *scenario) error { return sc.eng.ValidateRates(c.updates) }

func (c *ingestCmd) apply(sc *scenario) (err error) {
	if c.res, err = sc.eng.Ingest(c.updates); err != nil {
		return refused{err}
	}
	return nil
}

type stepCmd struct{ res engine.StepResult }

func (c *stepCmd) walType() wal.Type        { return wal.TypeStep }
func (c *stepCmd) encode() ([]byte, error)  { return nil, nil }
func (c *stepCmd) validate(*scenario) error { return nil }

func (c *stepCmd) apply(sc *scenario) (err error) {
	c.res, err = sc.eng.Step()
	return err
}

type faultsCmd struct {
	inject, heal []fault.Fault
	// ctx bounds a live repair consult; nil (replay) means no bound.
	ctx context.Context
	res *engine.FaultResult
}

func (c *faultsCmd) walType() wal.Type { return wal.TypeFaults }

func (c *faultsCmd) encode() ([]byte, error) {
	return json.Marshal(walFaults{Inject: c.inject, Heal: c.heal})
}

func (c *faultsCmd) validate(*scenario) error { return nil }

func (c *faultsCmd) apply(sc *scenario) (err error) {
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if c.res, err = sc.eng.ApplyFaults(ctx, c.inject, c.heal); err != nil {
		return refused{err}
	}
	return nil
}

// decodeCommand rebuilds a command from its log record.
func decodeCommand(typ wal.Type, payload []byte) (command, error) {
	switch typ {
	case wal.TypeCreate:
		var c walCreate
		if err := json.Unmarshal(payload, &c); err != nil {
			return nil, fmt.Errorf("create payload: %w", err)
		}
		return &createCmd{id: c.ID, spec: c.Spec}, nil
	case wal.TypeIngest:
		updates, err := decodeRates(payload)
		if err != nil {
			return nil, err
		}
		return &ingestCmd{updates: updates}, nil
	case wal.TypeStep:
		return &stepCmd{}, nil
	case wal.TypeFaults:
		var f walFaults
		if err := json.Unmarshal(payload, &f); err != nil {
			return nil, fmt.Errorf("faults payload: %w", err)
		}
		return &faultsCmd{inject: f.Inject, heal: f.Heal}, nil
	}
	return nil, fmt.Errorf("unknown record type %v", typ)
}

// run takes one command through validate → log → apply. It must be
// called from the scenario's actor (or before the scenario is
// published), so records are appended in the order they are applied;
// nothing is applied (or acknowledged) unless its record is in the log.
// Replay runs with no log attached. A checkpoint the scenario owes (see
// checkpoint) is taken behind the command that settles the engine.
func (sc *scenario) run(c command) error {
	if err := c.validate(sc); err != nil {
		return refused{err}
	}
	if sc.wal != nil {
		if err := sc.appendWAL(c); err != nil {
			return fmt.Errorf("scenario %q: wal: %w", sc.ID, err)
		}
	}
	err := c.apply(sc)
	if sc.owed {
		sc.offerCheckpoint()
	}
	return err
}

// do runs cmds back to back in one mailbox slot and waits for them,
// stopping at the first failure.
func (sc *scenario) do(cmds ...command) error {
	var runErr error
	err := sc.actor.Do(func() {
		for _, c := range cmds {
			if runErr = sc.run(c); runErr != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return runErr
}

// writeCommandErr is the one mapping from a failed command (or a failed
// offer to the actor) to its HTTP answer; it reports whether err was
// non-nil. A full mailbox is backpressure (429 + Retry-After); a closed
// actor means the scenario was deleted while the request held a
// reference to it (404, same as any other lookup miss); a fault
// transition that leaves no feasible placement is 503; any other
// rejection is the client's (422); what is left — a WAL append, a
// migrator, a panic — failed on our side (500).
func (s *server) writeCommandErr(w http.ResponseWriter, id string, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, shard.ErrMailboxFull):
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, codeResourceExhausted, "scenario %q mailbox full, retry later", id)
	case errors.Is(err, shard.ErrClosed):
		writeError(w, codeNotFound, "scenario %q was deleted", id)
	case errors.Is(err, engine.ErrInfeasible):
		writeError(w, codeUnavailable, "%v", err)
	case errors.As(err, new(refused)):
		writeError(w, codeInvalidArgument, "%v", err)
	default:
		writeError(w, codeInternal, "%v", err)
	}
	return true
}
