package experiments

import (
	"fmt"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/parallel"
	"vnfopt/internal/stats"
	"vnfopt/internal/workload"
)

// muSweep is an extension experiment: sensitivity of TOM to the migration
// coefficient μ across four orders of magnitude. The paper samples only
// μ ∈ {10⁴, 10⁵} (Fig. 11(c)); the sweep exposes the full trade-off — at
// small μ mPareto chases every shift (many moves, lowest communication
// cost), while past a knee migration never amortizes and mPareto
// degenerates to NoMigration.
func muSweep(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KLarge)
	burst := workload.PaperBurst()
	n := cfg.VNFs
	mus := []float64{1e2, 1e3, 1e4, 1e5, 1e6}

	t := &Table{
		Title: fmt.Sprintf("μ sweep (extension) — mPareto daily cost and moves vs migration coefficient, k=%d, l=%d, n=%d (%d runs)",
			cfg.KLarge, cfg.FlowsLarge, n, cfg.Runs),
		Columns: []string{"μ", "mPareto daily cost", "VNF moves/day", "NoMigration daily cost"},
	}
	for _, mu := range mus {
		mu := mu
		type out struct {
			cost, moves, frozen float64
		}
		perRun, err := parallel.Map(cfg.Runs, 0, func(run int) (out, error) {
			rng := cfg.runSeed("musweep", run*7+int(mu/100)%13)
			base := workload.MustPairsClustered(d.Topo, cfg.FlowsLarge, cfg.TenantRacks, workload.DefaultIntraRack, rng)
			sim, err := newDaySim(d, base, model.NewSFC(n), burst, mu, cfg.HourVolume, rng)
			if err != nil {
				return out{}, err
			}
			r, err := sim.runVNFStrategy(migration.MPareto{})
			if err != nil {
				return out{}, err
			}
			moves := 0
			for _, m := range r.Moves {
				moves += m
			}
			return out{
				cost:   r.DailyTotal,
				moves:  float64(moves),
				frozen: sim.runNoMigration().DailyTotal,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var cost, moves, frozen []float64
		for _, o := range perRun {
			cost = append(cost, o.cost)
			moves = append(moves, o.moves)
			frozen = append(frozen, o.frozen)
		}
		t.addRow(
			fmt.Sprintf("%.0g", mu),
			fmtSummary(stats.Summarize(cost)),
			fmtSummary(stats.Summarize(moves)),
			fmtSummary(stats.Summarize(frozen)),
		)
	}
	t.addNote("hourly traffic volume = %g rate units (see Config.HourVolume)", cfg.HourVolume)
	return t, nil
}
