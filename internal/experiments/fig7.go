package experiments

import (
	"fmt"

	"vnfopt/internal/parallel"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/stats"
)

// fig7 reproduces the paper's Fig. 7: TOP-1 (n-stroll) algorithms on an
// unweighted k=KSmall fat tree with one VM pair, varying the number of
// VNFs n. Series: Optimal (Algorithm 4 / exhaustive stroll), DP-Stroll
// (Algorithm 2), the PrimalDual 2+ε guarantee plotted as 2×Optimal (as the
// paper does), and — beyond the paper — the measured cost of our actual
// primal-dual implementation.
//
// The paper's qualitative claims checked here: DP-Stroll stays within a
// few percent of Optimal (paper: ~8%) and solidly under the guarantee.
func fig7(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KSmall)
	maxN := 8
	if cfg.KSmall < 6 {
		maxN = 6
	}
	t := &Table{
		Title: fmt.Sprintf("Fig. 7 — TOP-1 algorithms, k=%d fat tree, l=1, unweighted (mean ± 95%% CI over %d runs)",
			cfg.KSmall, cfg.Runs),
		Columns: []string{"n", "Optimal", "DP-Stroll", "PrimalDual 2x bound", "PrimalDual measured"},
	}
	unproven := 0
	for n := 2; n <= maxN; n++ {
		n := n
		type runOut struct {
			opt, dp, pd float64
			unproven    bool
		}
		perRun, err := parallel.Map(cfg.Runs, 0, func(r int) (runOut, error) {
			rng := cfg.runSeed("fig7", r*100+n)
			hosts := d.Topo.Hosts
			f := model.VMPair{
				Src:  hosts[rng.Intn(len(hosts))],
				Dst:  hosts[rng.Intn(len(hosts))],
				Rate: 1, // unit rate: Fig. 7 reports pure stroll cost
			}
			var out runOut
			var proven bool
			var err error
			_, out.opt, proven, err = placement.Top1Optimal(d, f, n, cfg.OptBudget)
			if err != nil {
				return runOut{}, err
			}
			out.unproven = !proven
			_, out.dp, err = placement.Top1DP(d, f, n)
			if err != nil {
				return runOut{}, err
			}
			_, out.pd, err = placement.Top1PrimalDual(d, f, n)
			if err != nil {
				return runOut{}, err
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		var opt, dp, pd, bound []float64
		for _, ro := range perRun {
			if ro.unproven {
				unproven++
			}
			opt = append(opt, ro.opt)
			dp = append(dp, ro.dp)
			pd = append(pd, ro.pd)
			bound = append(bound, 2*ro.opt)
		}
		t.addRow(
			fmt.Sprintf("%d", n),
			fmtSummary(stats.Summarize(opt)),
			fmtSummary(stats.Summarize(dp)),
			fmtSummary(stats.Summarize(bound)),
			fmtSummary(stats.Summarize(pd)),
		)
	}
	if unproven > 0 {
		t.addNote("%d Optimal points hit the %d-node search budget (anytime incumbent reported)", unproven, cfg.OptBudget)
	}
	return t, nil
}
