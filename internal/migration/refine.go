package migration

import (
	"fmt"
	"math"

	"vnfopt/internal/model"
)

// Refined wraps a migrator with a coordinate-descent post-pass: repeatedly
// re-place each single VNF at its best switch given the others (respecting
// the distinct-switch constraint) until no single move improves C_t. The
// pass is monotone, so Refined never reports a worse cost than its inner
// migrator, and it terminates (each sweep strictly decreases C_t or stops).
//
// Refined(LayeredDP) combined with Refined(MPareto) under BestOf is this
// library's "Optimal" surrogate at k=16 scale, where Algorithm 6 is
// infeasible (see DESIGN.md substitution #2).
type Refined struct {
	// Inner provides the starting point.
	Inner Migrator
	// MaxSweeps caps coordinate-descent sweeps (0 = default 50).
	MaxSweeps int
}

// Name implements Migrator.
func (r Refined) Name() string { return r.Inner.Name() + "+refine" }

// Migrate implements Migrator.
func (r Refined) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	m, _, err := r.Inner.Migrate(d, w, sfc, p, mu)
	if err != nil {
		return nil, 0, err
	}
	m = m.Clone()
	in, eg := d.NewWorkloadCache(w).EndpointCosts()
	lambda := w.TotalRate()
	used := make(map[int]int, len(m))
	for _, v := range m {
		used[v]++
	}

	sweeps := r.MaxSweeps
	if sweeps <= 0 {
		sweeps = 50
	}
	for s := 0; s < sweeps; s++ {
		improved := false
		for j := range m {
			cur := localCost(d, in, eg, lambda, mu, p, m, j, m[j])
			best := cur
			bestV := m[j]
			for _, v := range d.Topo.Switches {
				if v == m[j] {
					continue
				}
				if !d.CapFits(used, v) {
					continue
				}
				if c := localCost(d, in, eg, lambda, mu, p, m, j, v); c < best-1e-12 {
					best = c
					bestV = v
				}
			}
			if bestV != m[j] {
				used[m[j]]--
				used[bestV]++
				m[j] = bestV
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	ct := d.TotalCost(w, p, m, mu)
	if stay := d.CommCost(w, p); stay < ct {
		return p.Clone(), stay, nil
	}
	return m, ct, nil
}

// BestOf runs several migrators and returns the cheapest result. Its name
// is configurable so experiment tables can label it (e.g. "Optimal" for
// the k=16 surrogate).
type BestOf struct {
	Label    string
	Migrants []Migrator
}

// Name implements Migrator.
func (b BestOf) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "BestOf"
}

// Migrate implements Migrator.
func (b BestOf) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	if len(b.Migrants) == 0 {
		return nil, 0, fmt.Errorf("migration: BestOf with no migrators")
	}
	bestCt := math.Inf(1)
	var best model.Placement
	for _, mig := range b.Migrants {
		m, ct, err := mig.Migrate(d, w, sfc, p, mu)
		if err != nil {
			return nil, 0, err
		}
		if ct < bestCt {
			bestCt = ct
			best = m
		}
	}
	return best, bestCt, nil
}

// OptimalSurrogate builds the paper-scale stand-in for Algorithm 6: the
// best of refined LayeredDP and refined mPareto (never worse than mPareto
// itself, matching the paper's Optimal ≤ mPareto relation).
func OptimalSurrogate() Migrator {
	return BestOf{
		Label: "Optimal*",
		Migrants: []Migrator{
			Refined{Inner: LayeredDP{}},
			Refined{Inner: MPareto{}},
		},
	}
}
