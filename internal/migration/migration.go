// Package migration implements the paper's TOM algorithms: mPareto
// (Algorithm 5, the parallel-migration-frontier search), the exhaustive
// Algorithm 6, the LayeredDP optimal surrogate used at k=16 scale, and the
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

// ContextMigrator is a Migrator with a cancellable variant. Exhaustive
// implements it and consults it on its own Seed, and Repair prefers it
// for the TOM consult, so cancellation reaches nested searches.
type ContextMigrator interface {
	Migrator
	// MigrateContext is Migrate under a context: on cancellation it
	// returns the best incumbent found so far together with ctx.Err().
	MigrateContext(ctx context.Context, d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error)
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
