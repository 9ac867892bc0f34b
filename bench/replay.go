package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/graph"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/placement"
	"vnfopt/internal/shard"
	"vnfopt/internal/topology"
	"vnfopt/internal/wal"
)

// ingestResp mirrors the daemon's ingest response body. Both the
// daemon's bytes and the in-process results pass through these types and
// encoding/json with the wall-clock fields zeroed, so equal bytes mean
// bit-equal values.
type ingestResp struct {
	engine.IngestResult
	Batches []engine.IngestResult `json:"batches,omitempty"`
	Step    *engine.StepResult    `json:"step,omitempty"`
}

func (r *ingestResp) canon() []byte {
	if r.Step != nil {
		r.Step.Elapsed = 0
	}
	b, _ := json.Marshal(r)
	return b
}

func canonState(st *engine.State) []byte {
	st.Metrics.LastEpoch, st.Metrics.TotalEpoch = 0, 0
	b, _ := json.Marshal(st)
	return b
}

// bulkBatch is the daemon's NDJSON fold size (cmd/vnfoptd bulkBatchSize):
// the replay must ingest in the same batches to reproduce the per-batch
// coalescing counts.
const bulkBatch = 8192

// tracedSolver and tracedMigrator put a span around every TOP / TOM call
// the engine makes. Like the daemon's own instrumentation wrappers they
// expose only the plain interface, so the engine takes the same code path
// through them as it does in the daemon.
type tracedSolver struct {
	inner placement.Solver
	tr    *tracer
}

func (s tracedSolver) Name() string { return s.inner.Name() }

func (s tracedSolver) Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	s.tr.begin("placement.place")
	defer s.tr.end()
	return s.inner.Place(d, w, sfc)
}

type tracedMigrator struct {
	inner migration.Migrator
	tr    *tracer
}

func (m tracedMigrator) Name() string { return m.inner.Name() }

func (m tracedMigrator) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	m.tr.begin("migration.consult")
	defer m.tr.end()
	return m.inner.Migrate(d, w, sfc, p, mu)
}

// buildModel materialises a spec's fabric and base workload the way
// cmd/vnfoptd's buildEngine does, with a span around each layer.
func buildModel(spec *scenarioSpec, tr *tracer) (*model.PPDC, model.Workload, error) {
	tr.begin("topology.build")
	topo, err := topology.FatTree(spec.K, nil)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("model.new")
	d, err := model.New(topo, model.Options{})
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	base := make(model.Workload, len(spec.Pairs))
	for i, p := range spec.Pairs {
		base[i] = model.VMPair{Src: topo.Hosts[p.Src], Dst: topo.Hosts[p.Dst], Rate: p.Rate}
	}
	return d, base, nil
}

// buildEngine is cmd/vnfoptd's buildEngine for the spec fields this
// benchmark sets.
func buildEngine(spec *scenarioSpec, tr *tracer) (*engine.Engine, error) {
	d, base, err := buildModel(spec, tr)
	if err != nil {
		return nil, err
	}
	var mig migration.Migrator
	switch strings.ToLower(spec.Migrator) {
	case "mpareto":
		mig = migration.MPareto{}
	case "nomigration":
		mig = migration.NoMigration{}
	default:
		return nil, fmt.Errorf("benchmark spec uses migrator %q, which the replay does not build", spec.Migrator)
	}
	tr.begin("engine.new")
	defer tr.end()
	return engine.New(engine.Config{
		PPDC:     d,
		SFC:      model.NewSFC(spec.SFCLen),
		Base:     base,
		Mu:       spec.Mu,
		Placer:   tracedSolver{placement.DP{}, tr},
		Migrator: tracedMigrator{mig, tr},
		Policy:   spec.Policy,
		Routing:  spec.Routing,
		Observer: engine.NewObserver(obs.NewRegistry(), obs.NewEventLog(0), spec.ID),
	})
}

// replica is one scenario replayed in-process. The plain oracle drives
// the engine directly; the traced replay adds what the daemon puts around
// it — a shard.Actor owning the engine and a wal.Log appended before
// every apply — so each layer boundary can carry a span.
type replica struct {
	eng   *engine.Engine
	actor *shard.Actor
	log   *wal.Log
	tr    *tracer
	buf   []byte // WAL payload scratch: record sizes match the daemon's, contents do not matter

	// Route-pass totals over every epoch, for sfcroute.admitted_rate_share.
	admittedRate, offeredRate float64

	// What cost_per_rate needs, kept by the oracle's replicas only: the
	// scenario's current rate vector and its sum, Σ C_t over the epochs and
	// repairs since the timed section began, and Σ of the rate each priced.
	rates          []float64
	rate           float64
	cost, costRate float64
}

// offer folds a rate update into the replica's own rate vector.
func (r *replica) offer(updates []engine.RateUpdate) {
	if r.rates == nil {
		return
	}
	for _, u := range updates {
		r.rate += u.Rate - r.rates[u.Flow]
		r.rates[u.Flow] = u.Rate
	}
}

// priced counts one epoch's or repair's C_t against the rate it priced.
func (r *replica) priced(cost float64) {
	r.cost += cost
	r.costRate += r.rate
}

// do runs fn where the daemon would: on the scenario's actor.
func (r *replica) do(fn func() error) error {
	if r.actor == nil {
		return fn()
	}
	r.tr.begin("shard.do")
	defer r.tr.end()
	var err error
	if derr := r.actor.Do(func() { err = fn() }); derr != nil {
		return derr
	}
	return err
}

// append logs one record of the daemon's size for this command.
func (r *replica) append(typ wal.Type, size int) error {
	if r.log == nil {
		return nil
	}
	if cap(r.buf) < size {
		r.buf = make([]byte, size)
	}
	r.tr.begin("wal.append")
	defer r.tr.end()
	_, err := r.log.Append(typ, r.buf[:size])
	return err
}

func (r *replica) step(resp *ingestResp) error {
	if err := r.append(wal.TypeStep, 0); err != nil {
		return err
	}
	r.tr.begin("engine.step")
	res, err := r.eng.Step()
	r.tr.end()
	if err != nil {
		return err
	}
	resp.Step = &res
	r.priced(res.TotalCost)
	if rep := r.eng.RoutingReport(); rep != nil {
		r.admittedRate += rep.AdmittedRate
		r.offeredRate += rep.AdmittedRate + rep.RejectedRate
	}
	return nil
}

// apply executes one op and returns the canonical response bytes the
// daemon's answer must equal (nil for a read, which has nothing to
// compare beyond what the client already checked).
func (r *replica) apply(o *op) ([]byte, error) {
	r.tr.nextOp()
	ingest := func(updates []engine.RateUpdate) (engine.IngestResult, error) {
		// 4+12n is the daemon's binary ingest payload.
		if err := r.append(wal.TypeIngest, 4+12*len(updates)); err != nil {
			return engine.IngestResult{}, err
		}
		r.tr.begin("engine.ingest")
		defer r.tr.end()
		res, err := r.eng.Ingest(updates)
		if err == nil {
			r.offer(updates)
		}
		return res, err
	}
	switch o.kind {
	case opRates:
		var resp ingestResp
		err := r.do(func() (err error) {
			if resp.IngestResult, err = ingest(o.updates); err != nil || !o.step {
				return err
			}
			return r.step(&resp)
		})
		return resp.canon(), err
	case opBulk:
		var resp ingestResp
		for rest := o.updates; len(rest) > 0; {
			batch := rest[:min(bulkBatch, len(rest))]
			rest = rest[len(batch):]
			err := r.do(func() error {
				res, err := ingest(batch)
				resp.Batches = append(resp.Batches, res)
				resp.Accepted += res.Accepted
				resp.Coalesced += res.Coalesced
				resp.Epoch = res.Epoch
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		err := r.do(func() error { return r.step(&resp) })
		return resp.canon(), err
	case opFaults:
		var res *engine.FaultResult
		payload, _ := json.Marshal(map[string]any{"inject": o.inject, "heal": o.heal})
		err := r.do(func() (err error) {
			if err = r.append(wal.TypeFaults, len(payload)); err != nil {
				return err
			}
			r.tr.begin("engine.apply_faults")
			defer r.tr.end()
			res, err = r.eng.ApplyFaults(context.Background(), o.inject, o.heal)
			return err
		})
		if err == nil && res.Repair != nil {
			r.priced(res.Repair.Cost)
		}
		out, _ := json.Marshal(res)
		return out, err
	}
	_ = r.eng.Snapshot() // opRead
	return nil, nil
}

func (r *replica) close() {
	if r.actor != nil {
		r.actor.Close()
	}
	if r.log != nil {
		_ = r.log.Close()
	}
}

// canonDaemon re-encodes a daemon response through the same types the
// replay uses, wall-clock fields zeroed.
func canonDaemon(kind opKind, raw []byte) ([]byte, error) {
	switch kind {
	case opRates, opBulk:
		var resp ingestResp
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		return resp.canon(), nil
	case opFaults:
		var res engine.FaultResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, err
		}
		return json.Marshal(&res)
	}
	return nil, nil
}

// hookAPSP points the graph package's process-global observers at the
// tracer, so APSP builds and deltas appear as child spans of whichever
// layer call triggered them. Only the serial traced replay may install
// them; restore puts the no-op hooks back.
func hookAPSP(tr *tracer, dirty *dirtyStats) (restore func()) {
	graph.SetAPSPObserver(func(vertices, edges, workers int, elapsed time.Duration) {
		tr.leaf("graph.apsp_build", elapsed)
	})
	graph.SetAPSPDeltaObserver(func(kind graph.DeltaKind, vertices, n, workers int, elapsed time.Duration) {
		tr.leaf("graph.apsp_delta", elapsed)
		dirty.deltas++
		dirty.sources += n
		dirty.vertices += vertices
	})
	return func() {
		graph.SetAPSPObserver(nil)
		graph.SetAPSPDeltaObserver(nil)
	}
}

// dirtyStats accumulates the incremental-APSP wasted-work ratio: sources
// re-run over sources that exist.
type dirtyStats struct{ deltas, sources, vertices int }

// tracedReplay replays the first wl.traceOps ops of every client through
// actor + WAL + engine, one scenario command at a time, recording spans
// when tr is on. It returns the wall time of the op loop alone (set-up
// excluded), which with tr off is the baseline for the tracing overhead.
func tracedReplay(wl *workload, tr *tracer, walDir string) (time.Duration, error) {
	policy, err := wal.ParseSyncPolicy(walPolicy[wl.name][1]) // the value after -wal-sync
	if err != nil {
		return 0, err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return 0, err
	}
	reps := make([]*replica, len(wl.scenarios))
	defer func() {
		for _, r := range reps {
			if r != nil {
				r.close()
			}
		}
	}()
	for i := range wl.scenarios {
		spec := &wl.scenarios[i]
		eng, err := buildEngine(spec, tr)
		if err != nil {
			return 0, err
		}
		log, err := wal.Open(fmt.Sprintf("%s/%d", walDir, i), wal.Options{Policy: policy})
		if err != nil {
			return 0, err
		}
		reps[i] = &replica{eng: eng, actor: shard.NewActor(1024), log: log, tr: tr}
	}
	start := time.Now()
	for _, ops := range wl.clients {
		for j := 0; j < wl.traceOps; j++ {
			o := &ops[j%len(ops)]
			if _, err := reps[o.sc].apply(o); err != nil {
				return 0, fmt.Errorf("traced replay: %s op %d: %w", wl.scenarios[o.sc].ID, j, err)
			}
		}
	}
	if len(wl.bulk) > 0 {
		o := &wl.bulk[0]
		if _, err := reps[o.sc].apply(o); err != nil {
			return 0, fmt.Errorf("traced replay: %s bulk: %w", wl.scenarios[o.sc].ID, err)
		}
	}
	elapsed := time.Since(start)
	for _, r := range reps {
		tr.begin("engine.marshal_state")
		_, err := r.eng.MarshalState()
		tr.end()
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}
