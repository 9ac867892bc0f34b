package obs

import (
	"context"
	"time"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
)

// This file holds the solver-facing instrumentation: drop-in wrappers
// for the TOP placement.Solver and TOM migration.Migrator interfaces
// that time every call and publish the outcome through pre-resolved
// registry handles. The core registry (obs.go) stays standard-library
// only; only these wrappers know about the model types.

// SolverMetrics are the pre-resolved handles an InstrumentedSolver
// publishes to. A nil *SolverMetrics (e.g. from a nil registry)
// disables publication without disabling the wrapped solver.
type SolverMetrics struct {
	Calls   *Counter
	Errors  *Counter
	Seconds *Histogram
	Cost    *Gauge
}

// NewSolverMetrics resolves the vnfopt_solver_* family for one named
// solver. Nil registry → nil metrics.
func NewSolverMetrics(r *Registry, solver string) *SolverMetrics {
	if r == nil {
		return nil
	}
	l := `{solver="` + solver + `"}`
	return &SolverMetrics{
		Calls:   r.Counter("vnfopt_solver_calls_total" + l),
		Errors:  r.Counter("vnfopt_solver_errors_total" + l),
		Seconds: r.Histogram("vnfopt_solver_seconds" + l),
		Cost:    r.Gauge("vnfopt_solver_cost" + l),
	}
}

// InstrumentedSolver wraps a TOP solver: every Place call is timed and
// its reported cost recorded. The wrapper is transparent — Name and the
// returned values are the inner solver's.
type InstrumentedSolver struct {
	Inner placement.Solver
	M     *SolverMetrics
}

// Name implements placement.Solver.
func (s InstrumentedSolver) Name() string { return s.Inner.Name() }

// Place implements placement.Solver.
func (s InstrumentedSolver) Place(d *model.PPDC, w model.Workload, sfc model.SFC) (model.Placement, float64, error) {
	start := time.Now()
	p, c, err := s.Inner.Place(d, w, sfc)
	s.observe(start, c, err)
	return p, c, err
}

// PlaceProblem implements placement.ProblemSolver: the Problem and the
// context go on to the inner solver.
func (s InstrumentedSolver) PlaceProblem(ctx context.Context, pr model.Problem) (model.Placement, float64, error) {
	start := time.Now()
	p, c, err := placement.Solve(ctx, s.Inner, pr)
	s.observe(start, c, err)
	return p, c, err
}

// observe publishes one finished call.
func (s InstrumentedSolver) observe(start time.Time, c float64, err error) {
	m := s.M
	if m == nil {
		return
	}
	m.Seconds.Observe(time.Since(start).Seconds())
	m.Calls.Inc()
	if err != nil {
		m.Errors.Inc()
	} else {
		m.Cost.Set(c)
	}
}

// MigratorMetrics are the pre-resolved handles an InstrumentedMigrator
// publishes to.
type MigratorMetrics struct {
	Calls   *Counter
	Errors  *Counter
	Moves   *Counter
	Seconds *Histogram
	Cost    *Gauge
}

// NewMigratorMetrics resolves the vnfopt_migrator_* family for one
// named migrator. Nil registry → nil metrics.
func NewMigratorMetrics(r *Registry, migrator string) *MigratorMetrics {
	if r == nil {
		return nil
	}
	l := `{migrator="` + migrator + `"}`
	return &MigratorMetrics{
		Calls:   r.Counter("vnfopt_migrator_calls_total" + l),
		Errors:  r.Counter("vnfopt_migrator_errors_total" + l),
		Moves:   r.Counter("vnfopt_migrator_moves_total" + l),
		Seconds: r.Histogram("vnfopt_migrator_seconds" + l),
		Cost:    r.Gauge("vnfopt_migrator_cost" + l),
	}
}

// InstrumentedMigrator wraps a TOM migrator: every Migrate call is
// timed; the reported total cost C_t and the number of VNF moves the
// proposal implies are recorded.
type InstrumentedMigrator struct {
	Inner migration.Migrator
	M     *MigratorMetrics
}

// Name implements migration.Migrator.
func (im InstrumentedMigrator) Name() string { return im.Inner.Name() }

// Migrate implements migration.Migrator.
func (im InstrumentedMigrator) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	start := time.Now()
	target, ct, err := im.Inner.Migrate(d, w, sfc, p, mu)
	im.observe(start, p, target, ct, err)
	return target, ct, err
}

// MigrateProblem implements migration.ProblemMigrator: the Problem and
// the context go on to the inner migrator, so a cancelled consult stops
// the search it wraps.
func (im InstrumentedMigrator) MigrateProblem(ctx context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	start := time.Now()
	target, ct, err := migration.Consult(ctx, im.Inner, pr, p, mu)
	im.observe(start, p, target, ct, err)
	return target, ct, err
}

// observe publishes one finished call.
func (im InstrumentedMigrator) observe(start time.Time, p, target model.Placement, ct float64, err error) {
	m := im.M
	if m == nil {
		return
	}
	m.Seconds.Observe(time.Since(start).Seconds())
	m.Calls.Inc()
	if err != nil {
		m.Errors.Inc()
	} else {
		m.Cost.Set(ct)
		if len(target) == len(p) {
			m.Moves.Add(int64(migration.MigrationCount(p, target)))
		}
	}
}
