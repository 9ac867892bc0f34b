package experiments

import (
	"fmt"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/workload"
)

// fig6b reproduces the paper's Fig. 6(b): the (C_b, C_a) coordinates of
// every parallel VNF migration frontier while the SFC migrates from an
// initial traffic-optimal placement p to the new optimum p' after the
// traffic shifts — a k=KLarge fat tree with n=6 VNFs and μ=200, as in the
// paper. The shift is a burst-model morning→afternoon transition (the hot
// tenant changes), which actually moves the optimum; independent rate
// redraws leave it pinned. The table also reports whether the sweep forms
// a Pareto front and whether it is convex (Theorem 5's condition).
func fig6b(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KLarge)
	n := 6
	if n > len(d.Topo.Switches) {
		n = len(d.Topo.Switches) / 2
	}
	const mu = 200.0
	sfc := model.NewSFC(n)

	// Scan seeds for a morning→afternoon shift whose new optimum is a
	// genuine move (some instances keep the same optimal switches, which
	// would make the sweep a single point).
	for attempt := 0; attempt < 32; attempt++ {
		rng := cfg.runSeed("fig6b", attempt)
		w := workload.MustPairsClustered(d.Topo, cfg.FlowsLarge, cfg.TenantRacks, workload.DefaultIntraRack, rng)
		sched, err := workload.PaperBurst().Schedule(d.Topo, w, rng)
		if err != nil {
			return nil, err
		}
		morning := w.WithRates(sched[2])
		afternoon := w.WithRates(sched[8])
		p, _, err := (placement.DP{}).Place(d, morning, sfc)
		if err != nil {
			return nil, err
		}
		pNew, _, err := (placement.DP{}).Place(d, afternoon, sfc)
		if err != nil {
			return nil, err
		}
		if p.Equal(pNew) {
			continue
		}
		points := migration.ParallelFrontiers(d, afternoon, sfc, p, pNew, mu)
		if len(points) < 3 {
			continue
		}
		t := &Table{
			Title: fmt.Sprintf("Fig. 6(b) — parallel migration frontiers, k=%d, n=%d, μ=%g", cfg.KLarge, n, mu),
			Columns: []string{
				"frontier", "C_b(p,m)", "C_a(m)", "C_t", "valid",
			},
		}
		for i, fp := range points {
			t.addRow(
				fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%.1f", fp.Cb),
				fmt.Sprintf("%.1f", fp.Ca),
				fmt.Sprintf("%.1f", fp.Cb+fp.Ca),
				fmt.Sprintf("%v", fp.Valid),
			)
		}
		t.addNote("Pareto front: %v; convex (Theorem 5 condition): %v",
			migration.IsParetoFront(points), migration.IsConvexFront(points))
		return t, nil
	}
	return nil, fmt.Errorf("experiments: fig6b found no moving optimum in 32 attempts")
}
