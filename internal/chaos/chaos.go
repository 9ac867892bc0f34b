// Package chaos is the deterministic fault-injection harness: a seeded
// generator produces a feasibility-preserving schedule of topology
// faults (inject + heal), and a runner drives an online engine through
// it — alongside an identical fault-free reference engine — checking
// the resilience invariants every epoch:
//
//   - the committed placement only ever uses live switches of the
//     serving region, within capacity;
//   - every reported cost is finite (unreachable flows are excluded and
//     reported, never Inf-costed);
//   - the engine's unserved-flow accounting matches an independent
//     replan of the same fault set;
//   - after the final heal the fabric is pristine again and — at μ=0
//     under the always-consult policy — the cost returns exactly to the
//     fault-free reference engine's optimum;
//   - the pristine APSP matrix, which every degraded view shares blocks
//     with, is still the build of the pristine graph.
//
// Everything is a pure function of (scenario, seed): two runs with the
// same inputs produce identical reports, which is what makes a chaos
// failure reproducible from its seed alone.
package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/model"
)

// Event is one scheduled topology transition.
type Event struct {
	Epoch  int           `json:"epoch"`
	Inject []fault.Fault `json:"inject,omitempty"`
	Heal   []fault.Fault `json:"heal,omitempty"`
}

// Schedule is a deterministic fault schedule: by construction every
// prefix keeps the fabric feasible for the SFC, and every injected
// fault is healed by the final epoch.
type Schedule struct {
	Seed   int64   `json:"seed"`
	Epochs int     `json:"epochs"`
	Events []Event `json:"events"`
}

// GenOptions tune the schedule generator. Zero values pick defaults.
type GenOptions struct {
	// Epochs is the schedule length (default 20). The final quarter
	// (at least 2 epochs) is reserved for healing.
	Epochs int
	// MaxActive caps simultaneous faults (default 3).
	MaxActive int
	// InjectProb / HealProb are the per-epoch transition probabilities
	// during the churn phase (defaults 0.5 / 0.25).
	InjectProb float64
	HealProb   float64
}

func (o GenOptions) withDefaults() GenOptions {
	if o.Epochs <= 0 {
		o.Epochs = 20
	}
	if o.MaxActive <= 0 {
		o.MaxActive = 3
	}
	if o.InjectProb <= 0 {
		o.InjectProb = 0.5
	}
	if o.HealProb <= 0 {
		o.HealProb = 0.25
	}
	return o
}

// candidates enumerates every single fault the fabric admits: all
// switches, all hosts, and all links, in deterministic vertex order.
func candidates(d *model.PPDC) []fault.Fault {
	var out []fault.Fault
	for _, s := range d.Topo.Switches {
		out = append(out, fault.Fault{Kind: fault.Switch, U: s})
	}
	for _, h := range d.Topo.Hosts {
		out = append(out, fault.Fault{Kind: fault.Host, U: h})
	}
	g := d.Topo.Graph
	for u := 0; u < g.Order(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				out = append(out, fault.Fault{Kind: fault.Link, U: u, V: e.To})
			}
		}
	}
	return out
}

// Generate builds a seeded fault schedule for the scenario. Every
// candidate injection is trialed against the pristine model first (via
// fault.Apply + PlanService) and kept only if the degraded fabric still
// hosts the SFC, so the runner never sees an infeasible transition; w
// supplies the rates the trial's service-region choice uses. All
// remaining faults are healed over the schedule's tail, leaving the
// final epoch pristine.
func Generate(d *model.PPDC, w model.Workload, sfcLen int, seed int64, o GenOptions) (*Schedule, error) {
	if d == nil || sfcLen < 1 {
		return nil, fmt.Errorf("chaos: need a model and a positive SFC length")
	}
	o = o.withDefaults()
	healTail := o.Epochs / 4
	if healTail < 2 {
		healTail = 2
	}
	if healTail >= o.Epochs {
		return nil, fmt.Errorf("chaos: %d epochs leave no churn phase", o.Epochs)
	}
	rng := rand.New(rand.NewSource(seed))
	cand := candidates(d)
	sched := &Schedule{Seed: seed, Epochs: o.Epochs}
	active := fault.FaultSet{}

	feasible := func(fs fault.FaultSet) bool {
		v, err := fault.Apply(d, fs)
		if err != nil {
			return false
		}
		plan := v.PlanService(w)
		return plan.Feasible(sfcLen) == nil && plan.CheckCosts() == nil
	}

	for ep := 1; ep <= o.Epochs-healTail; ep++ {
		var ev Event
		if active.Len() > 0 && rng.Float64() < o.HealProb {
			fs := active.Faults()
			f := fs[rng.Intn(len(fs))]
			active = active.Remove(f)
			ev.Heal = append(ev.Heal, f)
		}
		if active.Len() < o.MaxActive && rng.Float64() < o.InjectProb {
			// A bounded number of draws keeps generation deterministic and
			// total even when few candidates stay feasible.
			for tries := 0; tries < 16; tries++ {
				f := cand[rng.Intn(len(cand))]
				if active.Contains(f) {
					continue
				}
				if next := active.Add(f); feasible(next) {
					active = next
					ev.Inject = append(ev.Inject, f)
					break
				}
			}
		}
		if len(ev.Inject) > 0 || len(ev.Heal) > 0 {
			ev.Epoch = ep
			sched.Events = append(sched.Events, ev)
		}
	}
	// Heal phase: drain the active set one fault per epoch, the
	// remainder on the last epoch.
	rest := active.Faults()
	for ep := o.Epochs - healTail + 1; len(rest) > 0; ep++ {
		ev := Event{Epoch: ep}
		if ep >= o.Epochs {
			ev.Epoch = o.Epochs
			ev.Heal = append(ev.Heal, rest...)
			rest = nil
		} else {
			ev.Heal = append(ev.Heal, rest[0])
			rest = rest[1:]
		}
		sched.Events = append(sched.Events, ev)
	}
	return sched, nil
}

// Config is the scenario the runner drives.
type Config struct {
	PPDC *model.PPDC
	SFC  model.SFC
	Base model.Workload
	Mu   float64
	// Policy is the engine policy for both engines (zero = consult every
	// epoch, the configuration the strict post-heal invariant assumes).
	Policy engine.Policy
	// RateJitter is the per-epoch multiplicative rate perturbation
	// amplitude (default 0.2; negative disables churn).
	RateJitter float64
}

// EpochReport is one epoch of a chaos run.
type EpochReport struct {
	Epoch    int     `json:"epoch"`
	Cost     float64 `json:"cost"`
	RefCost  float64 `json:"ref_cost"`
	Active   int     `json:"active_faults"`
	Unserved int     `json:"unserved"`
	Moves    int     `json:"moves"`
}

// Report is the outcome of a chaos run.
type Report struct {
	Schedule *Schedule     `json:"schedule"`
	Epochs   []EpochReport `json:"epochs"`
	// FinalCost / RefFinalCost are the engines' communication costs after
	// the last epoch (all faults healed).
	FinalCost    float64 `json:"final_cost"`
	RefFinalCost float64 `json:"ref_final_cost"`
	// Repairs / Fallbacks are the chaos engine's repair counters.
	Repairs   int `json:"repairs"`
	Fallbacks int `json:"fallbacks"`
}

// Run drives a chaos engine through the schedule next to a fault-free
// reference engine fed the identical rate stream, checking the package
// invariants every epoch. The returned report is deterministic for a
// given (cfg, sched).
func Run(ctx context.Context, cfg Config, sched *Schedule) (*Report, error) {
	if sched == nil {
		return nil, fmt.Errorf("chaos: nil schedule")
	}
	mk := func() (*engine.Engine, error) {
		return engine.New(engine.Config{
			PPDC: cfg.PPDC, SFC: cfg.SFC, Base: cfg.Base, Mu: cfg.Mu, Policy: cfg.Policy,
		})
	}
	chaosEng, err := mk()
	if err != nil {
		return nil, err
	}
	refEng, err := mk()
	if err != nil {
		return nil, err
	}

	jitter := cfg.RateJitter
	if jitter == 0 {
		jitter = 0.2
	}
	rng := rand.New(rand.NewSource(sched.Seed))
	rates := make([]float64, len(cfg.Base))
	for i, f := range cfg.Base {
		rates[i] = f.Rate
	}
	events := make(map[int]Event, len(sched.Events))
	for _, ev := range sched.Events {
		events[ev.Epoch] = ev
	}

	rep := &Report{Schedule: sched}
	// plan mirrors the engine's current service plan; refreshed at every
	// fault transition from the same inputs the engine used, so the
	// invariant checks are an independent replay, not a readback.
	var plan *fault.ServicePlan
	// prevView chains the harness's own incremental views across events,
	// exercising repeated ApplyDelta transitions exactly like the engine
	// does; every transition is differentially checked against the full
	// rebuild below.
	var prevView *fault.View
	for ep := 1; ep <= sched.Epochs; ep++ {
		if jitter > 0 {
			var ups []engine.RateUpdate
			for i := range rates {
				if rng.Float64() < 0.5 {
					continue
				}
				r := cfg.Base[i].Rate * (1 + jitter*(2*rng.Float64()-1))
				if r < 0 {
					r = 0
				}
				rates[i] = r
				ups = append(ups, engine.RateUpdate{Flow: i, Rate: r})
			}
			if len(ups) > 0 {
				if _, err := chaosEng.Ingest(ups); err != nil {
					return nil, fmt.Errorf("chaos: epoch %d: %w", ep, err)
				}
				if _, err := refEng.Ingest(ups); err != nil {
					return nil, fmt.Errorf("chaos: epoch %d: %w", ep, err)
				}
			}
		}
		if ev, ok := events[ep]; ok {
			res, err := chaosEng.ApplyFaults(ctx, ev.Inject, ev.Heal)
			if err != nil {
				return nil, fmt.Errorf("chaos: epoch %d: schedule marked feasible but engine rejected: %w", ep, err)
			}
			fs := fault.NewFaultSet(chaosEng.Faults()...)
			v, err := fault.ApplyDelta(cfg.PPDC, prevView, fs)
			if err != nil {
				return nil, fmt.Errorf("chaos: epoch %d: %w", ep, err)
			}
			// Standing differential: the incremental view chained across
			// events must match the from-scratch rebuild bit-for-bit.
			full, err := fault.Apply(cfg.PPDC, fs)
			if err != nil {
				return nil, fmt.Errorf("chaos: epoch %d: %w", ep, err)
			}
			if err := fault.Diff(v, full); err != nil {
				return nil, fmt.Errorf("chaos: epoch %d: incremental view diverged from full rebuild: %w", ep, err)
			}
			prevView = v
			plan = v.PlanService(currentWorkload(cfg.Base, rates))
			if len(res.Unserved) != len(plan.Unserved) {
				return nil, fmt.Errorf("chaos: epoch %d: engine reports %d unserved flows, independent replan %d",
					ep, len(res.Unserved), len(plan.Unserved))
			}
		}
		sr, err := chaosEng.Step()
		if err != nil {
			return nil, fmt.Errorf("chaos: epoch %d: %w", ep, err)
		}
		rr, err := refEng.Step()
		if err != nil {
			return nil, fmt.Errorf("chaos: epoch %d: reference: %w", ep, err)
		}
		if err := checkEpoch(cfg, plan, chaosEng, sr); err != nil {
			return nil, fmt.Errorf("chaos: epoch %d: %w", ep, err)
		}
		snap := chaosEng.Snapshot()
		rep.Epochs = append(rep.Epochs, EpochReport{
			Epoch:    ep,
			Cost:     sr.CommCost,
			RefCost:  rr.CommCost,
			Active:   snap.ActiveFaults,
			Unserved: snap.UnservedFlows,
			Moves:    sr.Moves,
		})
	}

	final, ref := chaosEng.Snapshot(), refEng.Snapshot()
	if final.Degraded || final.ActiveFaults != 0 {
		return nil, fmt.Errorf("chaos: schedule ended with %d active faults", final.ActiveFaults)
	}
	// Every delta of the schedule shared blocks with the pristine matrix,
	// directly or down a chain of views, and the last heal returned to it:
	// a delta that wrote through a shared block would have left it
	// something other than the build of the pristine graph.
	pristine, err := fault.Apply(cfg.PPDC, fault.FaultSet{})
	if err != nil {
		return nil, err
	}
	if err := fault.Diff(pristine, fault.Rebuild(cfg.PPDC, fault.FaultSet{})); err != nil {
		return nil, fmt.Errorf("chaos: the pristine matrix changed under the schedule: %w", err)
	}
	rep.FinalCost, rep.RefFinalCost = final.CommCost, ref.CommCost
	met := chaosEng.Metrics()
	rep.Repairs, rep.Fallbacks = met.Repairs, met.RepairFallbacks
	if cfg.Mu == 0 && cfg.Policy.Hysteresis <= 0 && cfg.Policy.Cooldown <= 0 && cfg.Policy.Budget <= 0 {
		// Strict heal invariant: at μ=0 under the always-consult policy
		// both engines land on the TOP-optimal placement for the final
		// rates, so the healed cost equals the never-faulted optimum.
		if !closeEnough(rep.FinalCost, rep.RefFinalCost) {
			return rep, fmt.Errorf("chaos: healed cost %v != fault-free optimum %v", rep.FinalCost, rep.RefFinalCost)
		}
	}
	return rep, nil
}

// checkEpoch enforces the per-epoch invariants on the chaos engine.
func checkEpoch(cfg Config, plan *fault.ServicePlan, e *engine.Engine, sr engine.StepResult) error {
	if math.IsInf(sr.CommCost, 0) || math.IsNaN(sr.CommCost) ||
		math.IsInf(sr.TotalCost, 0) || math.IsNaN(sr.TotalCost) {
		return fmt.Errorf("non-finite cost: comm=%v total=%v", sr.CommCost, sr.TotalCost)
	}
	snap := e.Snapshot()
	d := cfg.PPDC
	if plan != nil {
		d = plan.PPDC
		for _, s := range snap.Placement {
			if plan.View.Dead(s) {
				return fmt.Errorf("placement uses dead switch %d", s)
			}
		}
		if snap.UnservedFlows != len(plan.Unserved) {
			return fmt.Errorf("snapshot reports %d unserved flows, replan %d", snap.UnservedFlows, len(plan.Unserved))
		}
	}
	if err := snap.Placement.Validate(d, cfg.SFC); err != nil {
		return fmt.Errorf("placement invalid on serving model: %w", err)
	}
	return nil
}

func currentWorkload(base model.Workload, rates []float64) model.Workload {
	w := append(model.Workload(nil), base...)
	for i := range w {
		w[i].Rate = rates[i]
	}
	return w
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}
