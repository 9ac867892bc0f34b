package experiments

import (
	"fmt"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/sim"
	"vnfopt/internal/stats"
	"vnfopt/internal/workload"
)

// linkLoad is an extension experiment (not a paper figure): it routes the
// policy-preserving traffic onto actual links over the simulated day and
// compares the per-link load profile of mPareto against NoMigration —
// the bandwidth view behind the paper's motivation that SFC traffic
// "consumes higher bandwidth" and its provisioning assumption of ~40%
// link utilization.
func linkLoad(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KLarge)
	burst := workload.PaperBurst()
	n := cfg.VNFs

	var mpPeak, nmPeak, mpTotal, nmTotal []float64
	for run := 0; run < cfg.Runs; run++ {
		rng := cfg.runSeed("linkload", run)
		base := workload.MustPairsClustered(d.Topo, cfg.FlowsLarge, cfg.TenantRacks, workload.DefaultIntraRack, rng)
		sched, err := burst.Schedule(d.Topo, base, rng)
		if err != nil {
			return nil, err
		}
		s, err := sim.New(sim.Config{
			PPDC:       d,
			SFC:        model.NewSFC(n),
			Base:       base,
			Schedule:   sched,
			Mu:         cfg.Mu,
			HourVolume: cfg.HourVolume,
			TrackLinks: true,
		})
		if err != nil {
			return nil, err
		}
		mp, err := s.RunVNF(migration.MPareto{})
		if err != nil {
			return nil, err
		}
		nm, err := s.RunFrozen()
		if err != nil {
			return nil, err
		}
		mpPeak = append(mpPeak, mp.PeakLink)
		nmPeak = append(nmPeak, nm.PeakLink)
		mpTotal = append(mpTotal, mp.Total)
		nmTotal = append(nmTotal, nm.Total)
	}

	t := &Table{
		Title: fmt.Sprintf("Link loads (extension) — routed traffic over the diurnal day, k=%d, l=%d, n=%d, μ=%.0g (%d runs)",
			cfg.KLarge, cfg.FlowsLarge, n, cfg.Mu, cfg.Runs),
		Columns: []string{"metric", "mPareto", "NoMigration"},
	}
	t.addRow("peak link load",
		fmtSummary(stats.Summarize(mpPeak)),
		fmtSummary(stats.Summarize(nmPeak)))
	t.addRow("total traffic (Σ link·load)",
		fmtSummary(stats.Summarize(mpTotal)),
		fmtSummary(stats.Summarize(nmTotal)))
	t.addNote("peak link load includes the one-shot migration transfers (μ per link on each VNF's path)")
	return t, nil
}
