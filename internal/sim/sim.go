// Package sim is the dynamic-PPDC simulator behind the Fig. 11
// experiments and the examples: it drives an hourly rate schedule through
// a PPDC and lets strategies react — TOM migrators moving VNFs, VM
// baselines moving endpoints, or nothing — while recording costs,
// migration counts, and (optionally) per-link load peaks.
//
// The simulator realizes the paper's framework lifecycle: TOP computes the
// initial placement at the first active hour, then the chosen TOM policy
// executes periodically "to optimize a PPDC's network resource in the face
// of dynamic VM traffic". The VNF runs are driven through the online
// placement engine (internal/engine) — one epoch per hour — so the batch
// figures and the vnfoptd control plane exercise a single code path;
// RunEngine exposes the engine's drift/cooldown/budget policy for offline
// replays of online configurations.
package sim

import (
	"fmt"

	"vnfopt/internal/engine"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/vmmig"
)

// Config describes one simulation scenario.
type Config struct {
	// PPDC is the fabric.
	PPDC *model.PPDC
	// SFC is the chain every flow traverses.
	SFC model.SFC
	// Base provides the flow endpoints; its rates are ignored.
	Base model.Workload
	// Schedule[h][i] is flow i's rate in hour h+1 (e.g. from
	// workload.BurstModel.Schedule).
	Schedule [][]float64
	// Mu is the migration coefficient.
	Mu float64
	// HourVolume scales rates into hourly traffic volumes (≤ 0 = 1).
	HourVolume float64
	// Placer computes the initial placement (nil = Algorithm 3).
	Placer placement.Solver
	// TrackLinks enables per-hour link-load reports (costs one routing
	// pass per hour).
	TrackLinks bool
	// Observer, when non-nil, instruments the engine-driven runs
	// (RunVNF/RunEngine): epoch latencies, drift, migration and cache
	// counters flow into its registry. Nil disables instrumentation.
	Observer *engine.Observer
}

// Step is one simulated hour's outcome.
type Step struct {
	// Hour is 1-based.
	Hour int
	// Cost is the hour's total cost (migration performed this hour plus
	// communication).
	Cost float64
	// Moves is the number of migrations performed this hour.
	Moves int
	// MeanLatency is the traffic-weighted mean policy-preserving path
	// cost of the hour (communication cost per unit of traffic) — the
	// latency proxy of the paper's weighted PPDCs. Zero in silent hours.
	MeanLatency float64
	// Links summarizes the hour's link loads (zero value unless
	// Config.TrackLinks).
	Links LinkReport
}

// Trace is a full simulation run.
type Trace struct {
	// Strategy names the policy that produced the trace.
	Strategy string
	// Initial is the TOP placement the run started from.
	Initial model.Placement
	// Final is the placement after the last hour (Initial for VM
	// strategies and NoMigration).
	Final model.Placement
	// Steps holds one entry per hour.
	Steps []Step
	// Total is the summed hourly cost.
	Total float64
	// TotalMoves is the summed migration count.
	TotalMoves int
	// PeakLink is the maximum per-link load seen over the run (only with
	// Config.TrackLinks).
	PeakLink float64
}

// Simulator is a validated, immutable scenario; each Run* walks the same
// schedule so strategies are compared on identical traffic.
type Simulator struct {
	cfg   Config
	hours []model.Workload
	p0    model.Placement
}

// New validates the scenario, materializes the hourly workloads, and
// computes the initial TOP placement.
func New(cfg Config) (*Simulator, error) {
	if cfg.PPDC == nil {
		return nil, fmt.Errorf("sim: nil PPDC")
	}
	if len(cfg.Schedule) == 0 {
		return nil, fmt.Errorf("sim: empty schedule")
	}
	if cfg.Mu < 0 {
		return nil, fmt.Errorf("sim: negative μ %v", cfg.Mu)
	}
	if err := cfg.Base.Validate(cfg.PPDC); err != nil {
		return nil, err
	}
	vol := cfg.HourVolume
	if vol <= 0 {
		vol = 1
	}
	s := &Simulator{cfg: cfg}
	for h, rates := range cfg.Schedule {
		if len(rates) != len(cfg.Base) {
			return nil, fmt.Errorf("sim: schedule hour %d has %d rates for %d flows", h+1, len(rates), len(cfg.Base))
		}
		w := make(model.Workload, len(cfg.Base))
		for i, f := range cfg.Base {
			if rates[i] < 0 {
				return nil, fmt.Errorf("sim: negative rate at hour %d flow %d", h+1, i)
			}
			f.Rate = rates[i] * vol
			w[i] = f
		}
		s.hours = append(s.hours, w)
	}
	first := -1
	for h := range s.hours {
		if s.hours[h].TotalRate() > 0 {
			first = h
			break
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("sim: schedule has no traffic")
	}
	placer := cfg.Placer
	if placer == nil {
		placer = placement.DP{}
	}
	p0, _, err := placer.Place(cfg.PPDC, s.hours[first], cfg.SFC)
	if err != nil {
		return nil, fmt.Errorf("sim: initial placement: %w", err)
	}
	s.p0 = p0
	return s, nil
}

// Hours returns the number of simulated hours.
func (s *Simulator) Hours() int { return len(s.hours) }

// HourWorkload returns the workload of 1-based hour h (shared storage; do
// not mutate).
func (s *Simulator) HourWorkload(h int) model.Workload { return s.hours[h-1] }

// Initial returns the TOP placement the runs start from.
func (s *Simulator) Initial() model.Placement { return s.p0.Clone() }

// meanLatency returns C_a per unit of traffic for the hour (0 if silent).
func (s *Simulator) meanLatency(w model.Workload, p model.Placement) float64 {
	total := w.TotalRate()
	if total == 0 {
		return 0
	}
	return s.cfg.PPDC.CommCost(w, p) / total
}

// track fills the step's link report when enabled.
func (s *Simulator) track(step *Step, w model.Workload, pPrev, pCur model.Placement) error {
	if !s.cfg.TrackLinks {
		return nil
	}
	loads, err := LinkLoads(s.cfg.PPDC, w, pCur)
	if err != nil {
		return err
	}
	addMigrationLoads(s.cfg.PPDC, loads, pPrev, pCur, s.cfg.Mu)
	step.Links = summarize(loads)
	return nil
}

// RunVNF simulates the schedule with a TOM migrator adapting the
// placement every hour. It is RunEngine with the always-consult policy:
// the migrator runs every hour, exactly the paper's periodic TOM
// execution.
func (s *Simulator) RunVNF(mig migration.Migrator) (*Trace, error) {
	return s.RunEngine(mig, engine.Policy{})
}

// RunEngine drives the schedule through the online placement engine —
// the same control loop cmd/vnfoptd serves — one epoch per hour, under
// the given migration policy. The zero policy consults the migrator every
// hour and reproduces the pre-engine batch loop bit-for-bit; a hysteresis
// policy gives the drift-triggered behaviour of the online system, making
// offline schedule replays the reference for what the daemon should have
// done on the same stream.
func (s *Simulator) RunEngine(mig migration.Migrator, pol engine.Policy) (*Trace, error) {
	first := s.firstActive()
	eng, err := engine.New(engine.Config{
		PPDC:     s.cfg.PPDC,
		SFC:      s.cfg.SFC,
		Base:     s.hours[first],
		Mu:       s.cfg.Mu,
		Initial:  s.p0,
		Migrator: mig,
		Policy:   pol,
		Observer: s.cfg.Observer,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: engine: %w", err)
	}
	tr := &Trace{Strategy: eng.MigratorName(), Initial: s.Initial()}
	p := s.p0.Clone()
	updates := make([]engine.RateUpdate, len(s.cfg.Base))
	for h := range s.hours {
		w := s.hours[h]
		for i, f := range w {
			updates[i] = engine.RateUpdate{Flow: i, Rate: f.Rate}
		}
		if _, err := eng.Ingest(updates); err != nil {
			return nil, fmt.Errorf("sim: hour %d: %w", h+1, err)
		}
		res, err := eng.Step()
		if err != nil {
			return nil, fmt.Errorf("sim: %s hour %d: %w", eng.MigratorName(), h+1, err)
		}
		step := Step{
			Hour:        h + 1,
			Cost:        res.TotalCost,
			Moves:       res.Moves,
			MeanLatency: s.meanLatency(w, res.Placement),
		}
		if err := s.track(&step, w, p, res.Placement); err != nil {
			return nil, err
		}
		tr.record(step)
		p = res.Placement
	}
	tr.Final = p
	return tr, nil
}

// firstActive returns the index of the first hour with traffic (New
// guarantees one exists).
func (s *Simulator) firstActive() int {
	for h := range s.hours {
		if s.hours[h].TotalRate() > 0 {
			return h
		}
	}
	return 0
}

// RunVM simulates the schedule with a VM-migration baseline: VNFs stay at
// the initial placement while VM endpoints move; host moves persist.
func (s *Simulator) RunVM(mig vmmig.VMMigrator) (*Trace, error) {
	tr := &Trace{Strategy: mig.Name(), Initial: s.Initial(), Final: s.Initial()}
	hosts := make([][2]int, len(s.cfg.Base))
	for i, f := range s.cfg.Base {
		hosts[i] = [2]int{f.Src, f.Dst}
	}
	for h := range s.hours {
		w := make(model.Workload, len(s.hours[h]))
		for i, f := range s.hours[h] {
			f.Src, f.Dst = hosts[i][0], hosts[i][1]
			w[i] = f
		}
		out, total, moves, err := mig.Migrate(s.cfg.PPDC, w, s.cfg.SFC, s.p0, s.cfg.Mu)
		if err != nil {
			return nil, fmt.Errorf("sim: %s hour %d: %w", mig.Name(), h+1, err)
		}
		step := Step{Hour: h + 1, Cost: total, Moves: moves, MeanLatency: s.meanLatency(out, s.p0)}
		if err := s.track(&step, out, s.p0, s.p0); err != nil {
			return nil, err
		}
		tr.record(step)
		for i := range out {
			hosts[i] = [2]int{out[i].Src, out[i].Dst}
		}
	}
	return tr, nil
}

// RunFrozen simulates the schedule with the placement frozen at the
// initial TOP solution (the paper's NoMigration reference).
func (s *Simulator) RunFrozen() (*Trace, error) {
	tr := &Trace{Strategy: "NoMigration", Initial: s.Initial(), Final: s.Initial()}
	for h := range s.hours {
		w := s.hours[h]
		step := Step{Hour: h + 1, Cost: s.cfg.PPDC.CommCost(w, s.p0), MeanLatency: s.meanLatency(w, s.p0)}
		if err := s.track(&step, w, s.p0, s.p0); err != nil {
			return nil, err
		}
		tr.record(step)
	}
	return tr, nil
}

// record appends a step and updates the aggregates.
func (tr *Trace) record(step Step) {
	tr.Steps = append(tr.Steps, step)
	tr.Total += step.Cost
	tr.TotalMoves += step.Moves
	if step.Links.Max > tr.PeakLink {
		tr.PeakLink = step.Links.Max
	}
}
