package migration

import (
	"context"
	"fmt"

	"vnfopt/internal/model"
)

// Budgeted wraps a migrator with a per-call migration budget: at most
// Budget VNFs may move in one migration — the operator constraint behind
// the online engine's policy knob (each move is a FlowTags rule update and
// a burst of μ-weighted migration traffic; real control planes rate-limit
// them). When the inner migrator proposes more moves than the budget
// allows, the wrapper greedily reverts the moves whose reversal hurts
// C_t(p, m) least — re-evaluating the chain after every reversal, since
// neighbouring hops couple through c(m(j−1), m(j)) — until the proposal
// fits. Reversals that would violate the per-switch capacity are skipped;
// if no reversal is feasible, or the trimmed proposal stopped paying for
// itself, the call degrades to staying put.
type Budgeted struct {
	// Inner proposes migrations.
	Inner Migrator
	// Budget is the maximum number of moves per call (≤ 0 = unlimited).
	Budget int
}

// Name implements Migrator.
func (bu Budgeted) Name() string {
	return fmt.Sprintf("%s(budget=%d)", bu.Inner.Name(), bu.Budget)
}

// Migrate implements Migrator.
func (bu Budgeted) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		return nil, 0, err
	}
	return bu.MigrateProblem(context.TODO(), pr, p, mu)
}

// MigrateProblem implements ProblemMigrator: the inner migrator is
// consulted on pr under ctx; the trim prices with the scalar model.
func (bu Budgeted) MigrateProblem(ctx context.Context, pr model.Problem, p model.Placement, mu float64) (model.Placement, float64, error) {
	d, w, sfc := pr.PPDC, pr.Workload, pr.SFC
	m, ct, err := Consult(ctx, bu.Inner, pr, p, mu)
	if err != nil {
		return nil, 0, err
	}
	if bu.Budget <= 0 || MigrationCount(p, m) <= bu.Budget {
		return m, ct, nil
	}
	m = m.Clone()
	for MigrationCount(p, m) > bu.Budget {
		bestJ, bestCost := -1, 0.0
		for j := range m {
			if m[j] == p[j] {
				continue
			}
			keep := m[j]
			m[j] = p[j]
			if m.Validate(d, sfc) == nil {
				if c := d.TotalCost(w, p, m, mu); bestJ < 0 || c < bestCost {
					bestJ, bestCost = j, c
				}
			}
			m[j] = keep
		}
		if bestJ < 0 {
			// No single reversal is capacity-feasible; the only placement
			// within any budget is p itself.
			return p.Clone(), d.CommCost(w, p), nil
		}
		m[bestJ] = p[bestJ]
	}
	stay := d.CommCost(w, p)
	if ct = d.TotalCost(w, p, m, mu); ct >= stay {
		return p.Clone(), stay, nil
	}
	return m, ct, nil
}
