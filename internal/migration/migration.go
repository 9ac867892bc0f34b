// Package migration implements the paper's TOM algorithms: mPareto
// (Algorithm 5, the parallel-migration-frontier search), the exhaustive
// Algorithm 6 with its relaxation lower bound (Bound), and the
// NoMigration reference, plus the Pareto-front utilities behind Fig. 6(b)
// and Theorem 5's convexity condition.
package migration

import (
	"context"
	"fmt"

	"vnfopt/internal/model"
)

// Migrator is one TOM algorithm: given the current placement p and the new
// traffic vector, produce a migration target m minimizing
// C_t(p,m) = C_b(p,m) + C_a(m) (Eq. 8).
type Migrator interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Migrate returns the target placement m and its total cost C_t(p,m).
	Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error)
}

// ProblemMigrator is a Migrator that reads a prepared model.Problem —
// cost cache included — instead of aggregating the workload again, under
// a context. Every TOM algorithm a vnfoptd scenario can run implements
// it; call it through Consult.
type ProblemMigrator interface {
	Migrator
	// MigrateProblem is Migrate on pr. A migrator that searches polls ctx
	// and, once it is cancelled, returns the best incumbent found so far
	// together with ctx.Err().
	MigrateProblem(ctx context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error)
}

// Consult runs inner on pr from placement p: through MigrateProblem when
// inner has it, so pr's cache and ctx reach the algorithm (and, through
// it, any migrator or placer nested inside it), else through Migrate on
// pr's fabric, workload and SFC. A panic in inner comes back as an
// error: the engine's control loop and a fault repair outlive a buggy
// solver.
func Consult(ctx context.Context, inner Migrator, pr model.Problem, p model.Placement, mu float64) (m model.Placement, ct float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, ct, err = nil, 0, fmt.Errorf("migration: %s panicked: %v", inner.Name(), r)
		}
	}()
	if pm, ok := inner.(ProblemMigrator); ok {
		return pm.MigrateProblem(ctx, pr, p, mu)
	}
	return inner.Migrate(pr.PPDC, pr.Workload, pr.SFC, p, mu)
}

// checkInputs validates the common preconditions of all migrators.
func checkInputs(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) error {
	if d == nil {
		return fmt.Errorf("migration: nil PPDC")
	}
	if mu < 0 {
		return fmt.Errorf("migration: negative migration coefficient %v", mu)
	}
	if err := w.Validate(d); err != nil {
		return err
	}
	if err := p.Validate(d, sfc); err != nil {
		return fmt.Errorf("migration: initial placement: %w", err)
	}
	return nil
}

// NoMigration keeps the placement fixed: m = p, C_t = C_a(p). It is the
// paper's reference for quantifying how much traffic VNF migration saves
// (Fig. 11(c)-(d), up to 73%).
type NoMigration struct{}

// Name implements Migrator.
func (NoMigration) Name() string { return "NoMigration" }

// Migrate implements Migrator.
func (NoMigration) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	if err := checkInputs(d, w, sfc, p, mu); err != nil {
		return nil, 0, err
	}
	return p.Clone(), d.CommCost(w, p), nil
}

// MigrateProblem implements ProblemMigrator. Staying put reads no cache,
// so here the Problem form is the one that delegates.
func (a NoMigration) MigrateProblem(_ context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	return a.Migrate(pr.PPDC, pr.Workload, pr.SFC, p, mu)
}

// MigrationCount returns the number of VNFs that actually move between p
// and m — the quantity plotted in Fig. 11(b).
func MigrationCount(p, m model.Placement) int {
	if len(p) != len(m) {
		panic("migration: placements of different lengths")
	}
	c := 0
	for j := range p {
		if p[j] != m[j] {
			c++
		}
	}
	return c
}
