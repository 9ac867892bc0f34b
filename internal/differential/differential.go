// Package differential cross-checks every solver in the library against
// every other on one scenario — the invariant web that must hold no
// matter the topology, workload, or parameters:
//
//	TOP:  Optimal ≤ DP ≤ {Steering, Greedy};
//	      every placement validates (capacity, switch-only).
//	TOM:  Exhaustive ≤ mPareto ≤ NoMigration;
//	      the relaxation bound (migration.Bound) ≤ Exhaustive;
//	      every reported C_t matches the model evaluation.
//	Kernels: the aggregated workload cost cache ≡ the scalar cost oracle
//	      on every placement any solver produces, across the w1 → w2
//	      rate-shift rebuild (see also FuzzCostCacheEquivalence).
//
// One call = one differential test case; the integration test and the
// fuzz harness both drive it.
package differential

import (
	"fmt"
	"math"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
)

// Report summarizes one differential run.
type Report struct {
	// PlacementCosts maps solver name to C_a.
	PlacementCosts map[string]float64
	// MigrationCosts maps migrator name to C_t.
	MigrationCosts map[string]float64
	// OptimalProven reports whether the exhaustive searches completed.
	OptimalProven bool
}

// Options tunes the run.
type Options struct {
	// NodeBudget caps the exhaustive searches (0 = unlimited — small
	// scenarios only).
	NodeBudget int
	// Mu is the migration coefficient for the TOM half.
	Mu float64
}

const tol = 1e-6

// closeRel is the reassociation-tolerance equivalence for the aggregated
// cost cache: it sums the same terms as the scalar oracle in a different
// order, so agreement is to ULP-accumulation scale, not exact.
func closeRel(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// Run executes the full cross-check. w1 drives placement; w2 (the
// shifted rates) drives migration. It returns an error naming the first
// violated invariant.
func Run(d *model.PPDC, w1, w2 model.Workload, sfc model.SFC, opts Options) (*Report, error) {
	rep := &Report{
		PlacementCosts: map[string]float64{},
		MigrationCosts: map[string]float64{},
		OptimalProven:  true,
	}

	// --- cost-kernel equivalence ------------------------------------
	// The aggregated workload cache must agree with the scalar cost
	// oracle on every placement any solver produces below; checkCache is
	// woven into both halves.
	cache1 := d.NewWorkloadCache(w1)
	checkCache := func(cache *model.WorkloadCache, w model.Workload, p model.Placement, who string) error {
		scalar := d.CommCost(w, p)
		if got := cache.CommCost(p); !closeRel(got, scalar) {
			return fmt.Errorf("differential: aggregated C_a %v diverges from scalar %v on %s placement %v",
				got, scalar, who, p)
		}
		return nil
	}

	// --- TOP ---------------------------------------------------------
	solvers := []placement.Solver{
		placement.DP{},
		placement.Steering{},
		placement.Greedy{},
	}
	for _, s := range solvers {
		p, c, err := s.Place(d, w1, sfc)
		if err != nil {
			return nil, fmt.Errorf("differential: %s: %w", s.Name(), err)
		}
		if err := p.Validate(d, sfc); err != nil {
			return nil, fmt.Errorf("differential: %s placement invalid: %w", s.Name(), err)
		}
		if got := d.CommCost(w1, p); got > c+tol || got < c-tol {
			return nil, fmt.Errorf("differential: %s reported %v but evaluates to %v", s.Name(), c, got)
		}
		if err := checkCache(cache1, w1, p, s.Name()); err != nil {
			return nil, err
		}
		rep.PlacementCosts[s.Name()] = c
	}
	opt := placement.Optimal{NodeBudget: opts.NodeBudget, Seed: placement.DP{}}
	pOpt, cOpt, proven, err := opt.PlaceProven(d, w1, sfc)
	if err != nil {
		return nil, fmt.Errorf("differential: Optimal: %w", err)
	}
	if err := pOpt.Validate(d, sfc); err != nil {
		return nil, fmt.Errorf("differential: Optimal placement invalid: %w", err)
	}
	rep.PlacementCosts["Optimal"] = cOpt
	rep.OptimalProven = proven
	for name, c := range rep.PlacementCosts {
		if c < cOpt-tol {
			return nil, fmt.Errorf("differential: %s cost %v below Optimal %v", name, c, cOpt)
		}
	}

	// --- TOM ---------------------------------------------------------
	pInit, _, err := (placement.DP{}).Place(d, w1, sfc)
	if err != nil {
		return nil, err
	}
	stay := d.CommCost(w2, pInit)
	// Rate shift w1 → w2 goes through the cache's invalidation hook, so
	// the TOM half also exercises the dynamic-rates rebuild path.
	cache1.SetWorkload(w2)
	if err := checkCache(cache1, w2, pInit, "post-rate-shift initial"); err != nil {
		return nil, err
	}
	migs := []migration.Migrator{
		migration.MPareto{},
		migration.NoMigration{},
	}
	for _, mg := range migs {
		m, ct, err := mg.Migrate(d, w2, sfc, pInit, opts.Mu)
		if err != nil {
			return nil, fmt.Errorf("differential: %s: %w", mg.Name(), err)
		}
		if err := m.Validate(d, sfc); err != nil {
			return nil, fmt.Errorf("differential: %s target invalid: %w", mg.Name(), err)
		}
		if got := d.TotalCost(w2, pInit, m, opts.Mu); got > ct+tol || got < ct-tol {
			return nil, fmt.Errorf("differential: %s reported C_t %v but evaluates to %v", mg.Name(), ct, got)
		}
		if err := checkCache(cache1, w2, m, mg.Name()); err != nil {
			return nil, err
		}
		if ct > stay+tol && mg.Name() != "NoMigration" {
			return nil, fmt.Errorf("differential: %s C_t %v worse than staying %v", mg.Name(), ct, stay)
		}
		rep.MigrationCosts[mg.Name()] = ct
	}
	mOpt := migration.Exhaustive{NodeBudget: opts.NodeBudget, Seed: migration.MPareto{}}
	_, ctOpt, provenM, err := mOpt.MigrateProven(d, w2, sfc, pInit, opts.Mu)
	if err != nil {
		return nil, fmt.Errorf("differential: %s: %w", mOpt.Name(), err)
	}
	rep.MigrationCosts[mOpt.Name()] = ctOpt
	rep.OptimalProven = rep.OptimalProven && provenM
	for name, ct := range rep.MigrationCosts {
		if ct < ctOpt-tol {
			return nil, fmt.Errorf("differential: %s C_t %v below Exhaustive %v", name, ct, ctOpt)
		}
	}
	// TOM's relaxation lower-bounds the optimum.
	bound, err := migration.Bound(cache1.Problem(sfc), pInit, opts.Mu)
	if err != nil {
		return nil, fmt.Errorf("differential: TOM bound: %w", err)
	}
	if provenM && bound > ctOpt+tol {
		return nil, fmt.Errorf("differential: TOM bound %v above proven optimum %v", bound, ctOpt)
	}
	return rep, nil
}
