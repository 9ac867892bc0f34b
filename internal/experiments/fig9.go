package experiments

import (
	"fmt"
	"math/rand"

	"vnfopt/internal/model"
	"vnfopt/internal/parallel"
	"vnfopt/internal/placement"
	"vnfopt/internal/stats"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// placementSolvers returns the Fig. 9/10 algorithm roster in the paper's
// order: Optimal, DP (Algorithm 3), Greedy [34], Steering [55].
func placementSolvers(cfg Config) []placement.Solver {
	return []placement.Solver{
		placement.Optimal{NodeBudget: cfg.OptBudget, Seed: placement.DP{}},
		placement.DP{},
		placement.Greedy{},
		placement.Steering{},
	}
}

// comparePlacement runs all roster solvers on cfg.Runs random workloads
// (runs fan out across cores; per-run seeds keep results identical to a
// sequential sweep) and returns one table row of cost summaries plus the
// number of budget-limited Optimal points.
func comparePlacement(cfg Config, d *model.PPDC, mkWorkload func(r int) model.Workload, n int, figure string, point int) ([]string, int, error) {
	solvers := placementSolvers(cfg)
	sfc := model.NewSFC(n)
	type runResult struct {
		costs    []float64
		unproven int
	}
	results, err := parallel.Map(cfg.Runs, 0, func(r int) (runResult, error) {
		w := mkWorkload(r)
		res := runResult{costs: make([]float64, len(solvers))}
		for si, s := range solvers {
			var c float64
			var err error
			if opt, ok := s.(placement.Optimal); ok {
				var proven bool
				_, c, proven, err = opt.PlaceProven(d, w, sfc)
				if !proven {
					res.unproven++
				}
			} else {
				_, c, err = s.Place(d, w, sfc)
			}
			if err != nil {
				return runResult{}, fmt.Errorf("%s %s point %d: %w", figure, s.Name(), point, err)
			}
			res.costs[si] = c
		}
		return res, nil
	})
	if err != nil {
		return nil, 0, err
	}
	samples := make([][]float64, len(solvers))
	unproven := 0
	for _, res := range results {
		unproven += res.unproven
		for si, c := range res.costs {
			samples[si] = append(samples[si], c)
		}
	}
	row := make([]string, 0, len(solvers))
	for _, s := range samples {
		row = append(row, fmtSummary(stats.Summarize(s)))
	}
	return row, unproven, nil
}

// fig9a reproduces Fig. 9(a): TOP total communication cost vs the number
// of VM pairs l on an unweighted k=KSmall fat tree, n fixed.
func fig9a(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KSmall)
	n := cfg.VNFs
	ls := []int{cfg.FlowsSmall / 4, cfg.FlowsSmall / 2, cfg.FlowsSmall, cfg.FlowsSmall * 2, cfg.FlowsSmall * 4}
	t := &Table{
		Title: fmt.Sprintf("Fig. 9(a) — TOP algorithms vs number of VM pairs l, k=%d unweighted, n=%d (mean ± 95%% CI over %d runs)",
			cfg.KSmall, n, cfg.Runs),
		Columns: []string{"l", "Optimal", "DP", "Greedy", "Steering"},
	}
	totalUnproven := 0
	for _, l := range ls {
		row, unproven, err := comparePlacement(cfg, d, func(r int) model.Workload {
			rng := cfg.runSeed("fig9a", r*1000+l)
			return workload.MustPairs(d.Topo, l, workload.DefaultIntraRack, rng)
		}, n, "fig9a", l)
		if err != nil {
			return nil, err
		}
		totalUnproven += unproven
		t.addRow(append([]string{fmt.Sprintf("%d", l)}, row...)...)
	}
	if totalUnproven > 0 {
		t.addNote("%d Optimal points hit the %d-node budget (anytime incumbent reported)", totalUnproven, cfg.OptBudget)
	}
	return t, nil
}

// fig9b reproduces Fig. 9(b): TOP cost vs the number of VNFs n, l fixed.
func fig9b(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KSmall)
	l := cfg.FlowsSmall
	maxN := 8
	if cfg.KSmall < 6 {
		maxN = 6
	}
	t := &Table{
		Title: fmt.Sprintf("Fig. 9(b) — TOP algorithms vs number of VNFs n, k=%d unweighted, l=%d (mean ± 95%% CI over %d runs)",
			cfg.KSmall, l, cfg.Runs),
		Columns: []string{"n", "Optimal", "DP", "Greedy", "Steering"},
	}
	totalUnproven := 0
	for n := 3; n <= maxN; n++ {
		row, unproven, err := comparePlacement(cfg, d, func(r int) model.Workload {
			rng := cfg.runSeed("fig9b", r*1000+n)
			return workload.MustPairs(d.Topo, l, workload.DefaultIntraRack, rng)
		}, n, "fig9b", n)
		if err != nil {
			return nil, err
		}
		totalUnproven += unproven
		t.addRow(append([]string{fmt.Sprintf("%d", n)}, row...)...)
	}
	if totalUnproven > 0 {
		t.addNote("%d Optimal points hit the %d-node budget (anytime incumbent reported)", totalUnproven, cfg.OptBudget)
	}
	return t, nil
}

// fig10 reproduces Fig. 10: the same comparison on *weighted* PPDCs whose
// link delays follow the Greedy [34] setting (uniform, mean 1.5 ms,
// half-width 0.5 ms). Headline claims: DP within 6–12% of Optimal, and 56%
// to 64% cheaper than Steering/Greedy.
func fig10(cfg Config) (*Table, error) {
	l := cfg.FlowsSmall
	maxN := 8
	if cfg.KSmall < 6 {
		maxN = 6
	}
	t := &Table{
		Title: fmt.Sprintf("Fig. 10 — TOP algorithms with link delays, k=%d weighted, l=%d (mean ± 95%% CI over %d runs)",
			cfg.KSmall, l, cfg.Runs),
		Columns: []string{"n", "Optimal", "DP", "Greedy", "Steering"},
	}
	totalUnproven := 0
	for n := 3; n <= maxN; n++ {
		// The weighted topology is itself random: rebuild per run.
		ppdcs := make([]*model.PPDC, cfg.Runs)
		for r := 0; r < cfg.Runs; r++ {
			rng := rand.New(rand.NewSource(cfg.Seed*1_000_000 + int64(r)*1000 + int64(n)))
			ppdcs[r] = model.MustNew(topology.MustFatTree(cfg.KSmall, topology.PaperDelay(rng)), model.Options{})
		}
		solvers := placementSolvers(cfg)
		samples := make([][]float64, len(solvers))
		sfc := model.NewSFC(n)
		for r := 0; r < cfg.Runs; r++ {
			d := ppdcs[r]
			rng := cfg.runSeed("fig10", r*1000+n)
			w := workload.MustPairs(d.Topo, l, workload.DefaultIntraRack, rng)
			for si, s := range solvers {
				var c float64
				var err error
				if opt, ok := s.(placement.Optimal); ok {
					var proven bool
					_, c, proven, err = opt.PlaceProven(d, w, sfc)
					if !proven {
						totalUnproven++
					}
				} else {
					_, c, err = s.Place(d, w, sfc)
				}
				if err != nil {
					return nil, err
				}
				samples[si] = append(samples[si], c)
			}
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range samples {
			row = append(row, fmtSummary(stats.Summarize(s)))
		}
		t.addRow(row...)
	}
	if totalUnproven > 0 {
		t.addNote("%d Optimal points hit the %d-node budget (anytime incumbent reported)", totalUnproven, cfg.OptBudget)
	}
	return t, nil
}
