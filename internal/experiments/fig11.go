package experiments

import (
	"fmt"
	"math/rand"

	"vnfopt/internal/parallel"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/stats"
	"vnfopt/internal/vmmig"
	"vnfopt/internal/workload"
)

// optimal is Fig. 11's Optimal: the paper's Algorithm 6 seeded with
// mPareto, counting the hours whose search hit the node budget (their
// anytime incumbent stands). Each run's goroutine owns one.
type optimal struct {
	search   migration.Exhaustive
	unproven int
}

func newOptimal(budget int) *optimal {
	return &optimal{search: migration.Exhaustive{NodeBudget: budget, Seed: migration.MPareto{}}}
}

// Name implements migration.Migrator.
func (*optimal) Name() string { return "Optimal" }

// Migrate implements migration.Migrator.
func (o *optimal) Migrate(d *model.PPDC, w model.Workload, sfc model.SFC, p model.Placement, mu float64) (model.Placement, float64, error) {
	m, c, proven, err := o.search.MigrateProven(d, w, sfc, p, mu)
	if err == nil && !proven {
		o.unproven++
	}
	return m, c, err
}

// noteUnproven footnotes the hours in which a search of runs hit the
// node budget.
func noteUnproven(t *Table, runs []*optimal, budget int) {
	unproven := 0
	for _, o := range runs {
		unproven += o.unproven
	}
	if unproven > 0 {
		t.addNote("%d Optimal hours hit the %d-node budget (anytime incumbent reported)", unproven, budget)
	}
}

// dayStrategies builds the Fig. 11(a,b) roster: mPareto and opt adapt
// VNFs; PLAN and MCF adapt VMs. The host capacity for the VM baselines
// defaults to twice the average occupancy (see defaultHostCapacity).
func dayStrategies(cfg Config, d *model.PPDC, w model.Workload, opt *optimal) (vnf []migration.Migrator, vm []vmmig.VMMigrator) {
	capHost := cfg.HostCapacity
	if capHost <= 0 {
		capHost = defaultHostCapacity(d, w)
	}
	vnf = []migration.Migrator{migration.MPareto{}, opt}
	vm = []vmmig.VMMigrator{
		vmmig.PLAN{Opts: vmmig.Options{HostCapacity: capHost}},
		vmmig.MCF{Opts: vmmig.Options{HostCapacity: capHost}},
	}
	return vnf, vm
}

// fig11ab reproduces Fig. 11(a) and (b): the hour-by-hour total cost and
// migration counts of mPareto, PLAN, MCF, and Optimal over the diurnal day
// on a k=KLarge fat tree with μ=cfg.Mu. One simulated day per run; cells
// are means over runs.
func fig11ab(cfg Config) (*Table, *Table, error) {
	d := unweightedFatTree(cfg.KLarge)
	burst := workload.PaperBurst()
	n := cfg.VNFs

	// hourly[strategy][hour] collects per-run costs; moves likewise.
	var names []string
	var hourly, moves map[string][][]float64
	hourly = map[string][][]float64{}
	moves = map[string][][]float64{}
	record := func(r DayResult) {
		if _, ok := hourly[r.Name]; !ok {
			names = append(names, r.Name)
			hourly[r.Name] = make([][]float64, len(r.Hourly))
			moves[r.Name] = make([][]float64, len(r.Hourly))
		}
		for h := range r.Hourly {
			hourly[r.Name][h] = append(hourly[r.Name][h], r.Hourly[h])
			moves[r.Name][h] = append(moves[r.Name][h], float64(r.Moves[h]))
		}
	}

	opts := make([]*optimal, cfg.Runs)
	perRun, err := parallel.Map(cfg.Runs, 0, func(run int) ([]DayResult, error) {
		rng := cfg.runSeed("fig11ab", run)
		base := workload.MustPairsClustered(d.Topo, cfg.FlowsLarge, cfg.TenantRacks, workload.DefaultIntraRack, rng)
		sim, err := newDaySim(d, base, model.NewSFC(n), burst, cfg.Mu, cfg.HourVolume, rng)
		if err != nil {
			return nil, err
		}
		opts[run] = newOptimal(cfg.OptBudget)
		vnfMigs, vmMigs := dayStrategies(cfg, d, base, opts[run])
		var out []DayResult
		for _, mig := range vnfMigs {
			r, err := sim.runVNFStrategy(mig)
			if err != nil {
				return nil, fmt.Errorf("fig11a %s: %w", mig.Name(), err)
			}
			out = append(out, r)
		}
		for _, mig := range vmMigs {
			r, err := sim.runVMStrategy(mig)
			if err != nil {
				return nil, fmt.Errorf("fig11a %s: %w", mig.Name(), err)
			}
			out = append(out, r)
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, results := range perRun {
		for _, r := range results {
			record(r)
		}
	}

	costT := &Table{
		Title: fmt.Sprintf("Fig. 11(a) — hourly total cost over the diurnal day, k=%d, l=%d, n=%d, μ=%.0g (mean over %d runs)",
			cfg.KLarge, cfg.FlowsLarge, n, cfg.Mu, cfg.Runs),
		Columns: append([]string{"hour"}, names...),
	}
	moveT := &Table{
		Title: fmt.Sprintf("Fig. 11(b) — migrations per hour (VNFs for TOM, VMs for PLAN/MCF), k=%d, μ=%.0g",
			cfg.KLarge, cfg.Mu),
		Columns: append([]string{"hour"}, names...),
	}
	horizon := len(hourly[names[0]])
	for h := 0; h < horizon; h++ {
		costRow := []string{fmt.Sprintf("%d", h+1)}
		moveRow := []string{fmt.Sprintf("%d", h+1)}
		for _, name := range names {
			costRow = append(costRow, fmt.Sprintf("%.0f", stats.Mean(hourly[name][h])))
			moveRow = append(moveRow, fmt.Sprintf("%.1f", stats.Mean(moves[name][h])))
		}
		costT.addRow(costRow...)
		moveT.addRow(moveRow...)
	}
	// Daily totals as the last row.
	costTotals := []string{"total"}
	moveTotals := []string{"total"}
	for _, name := range names {
		var ct, mv float64
		for h := 0; h < horizon; h++ {
			ct += stats.Mean(hourly[name][h])
			mv += stats.Mean(moves[name][h])
		}
		costTotals = append(costTotals, fmt.Sprintf("%.0f", ct))
		moveTotals = append(moveTotals, fmt.Sprintf("%.1f", mv))
	}
	costT.addRow(costTotals...)
	moveT.addRow(moveTotals...)
	noteUnproven(costT, opts, cfg.OptBudget)
	noteUnproven(moveT, opts, cfg.OptBudget)
	return costT, moveT, nil
}

// fig11c reproduces Fig. 11(c): total daily cost vs the number of VM pairs
// l (exponential scale, base 2) for mPareto and Optimal at μ=10⁴ and 10⁵,
// with NoMigration as the reference.
func fig11c(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KLarge)
	burst := workload.PaperBurst()
	n := cfg.VNFs
	ls := []int{cfg.FlowsLarge / 4, cfg.FlowsLarge / 2, cfg.FlowsLarge, cfg.FlowsLarge * 2}
	mus := []float64{1e4, 1e5}

	t := &Table{
		Title: fmt.Sprintf("Fig. 11(c) — total daily cost vs l (exponential, base 2), k=%d, n=%d (mean ± 95%% CI over %d runs)",
			cfg.KLarge, n, cfg.Runs),
		Columns: []string{"l",
			"mPareto μ=1e4", "Optimal μ=1e4",
			"mPareto μ=1e5", "Optimal μ=1e5",
			"NoMigration"},
	}
	opts := make([]*optimal, len(ls)*cfg.Runs)
	for li, l := range ls {
		type runCells map[string]float64
		perRun, err := parallel.Map(cfg.Runs, 0, func(run int) (runCells, error) {
			rng := cfg.runSeed("fig11c", run*10_000+l)
			base := workload.MustPairsClustered(d.Topo, l, cfg.TenantRacks, workload.DefaultIntraRack, rng)
			opt := newOptimal(cfg.OptBudget)
			opts[li*cfg.Runs+run] = opt
			out := runCells{}
			for _, mu := range mus {
				sim, err := newDaySim(d, base, model.NewSFC(n), burst, mu, cfg.HourVolume, rand.New(rand.NewSource(cfg.Seed+int64(run)*31+int64(l))))
				if err != nil {
					return nil, err
				}
				for _, mig := range []migration.Migrator{migration.MPareto{}, opt} {
					r, err := sim.runVNFStrategy(mig)
					if err != nil {
						return nil, err
					}
					out[fmt.Sprintf("%s μ=%.0g", mig.Name(), mu)] = r.DailyTotal
				}
				if mu == mus[0] {
					out["NoMigration"] = sim.runNoMigration().DailyTotal
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		cells := map[string][]float64{}
		for _, rc := range perRun {
			for k, v := range rc {
				cells[k] = append(cells[k], v)
			}
		}
		t.addRow(
			fmt.Sprintf("%d", l),
			fmtSummary(stats.Summarize(cells["mPareto μ=1e+04"])),
			fmtSummary(stats.Summarize(cells["Optimal μ=1e+04"])),
			fmtSummary(stats.Summarize(cells["mPareto μ=1e+05"])),
			fmtSummary(stats.Summarize(cells["Optimal μ=1e+05"])),
			fmtSummary(stats.Summarize(cells["NoMigration"])),
		)
	}
	noteUnproven(t, opts, cfg.OptBudget)
	return t, nil
}

// fig11d reproduces Fig. 11(d): total daily cost vs the number of VNFs n
// for mPareto against NoMigration, quantifying the headline "VNF migration
// reduces the total cost of VM flows by up to 73%".
func fig11d(cfg Config) (*Table, error) {
	d := unweightedFatTree(cfg.KLarge)
	burst := workload.PaperBurst()
	ns := []int{3, 5, 7, 9, 11, 13}
	if len(d.Topo.Switches) < 26 {
		ns = []int{2, 3, 4, 5}
	}
	t := &Table{
		Title: fmt.Sprintf("Fig. 11(d) — total daily cost vs n, k=%d, l=%d, μ=%.0g (mean ± 95%% CI over %d runs)",
			cfg.KLarge, cfg.FlowsLarge, cfg.Mu, cfg.Runs),
		Columns: []string{"n", "mPareto", "NoMigration", "reduction"},
	}
	for _, n := range ns {
		n := n
		type pair struct{ mp, nm float64 }
		perRun, err := parallel.Map(cfg.Runs, 0, func(run int) (pair, error) {
			rng := cfg.runSeed("fig11d", run*100+n)
			base := workload.MustPairsClustered(d.Topo, cfg.FlowsLarge, cfg.TenantRacks, workload.DefaultIntraRack, rng)
			sim, err := newDaySim(d, base, model.NewSFC(n), burst, cfg.Mu, cfg.HourVolume, rng)
			if err != nil {
				return pair{}, err
			}
			r, err := sim.runVNFStrategy(migration.MPareto{})
			if err != nil {
				return pair{}, err
			}
			return pair{mp: r.DailyTotal, nm: sim.runNoMigration().DailyTotal}, nil
		})
		if err != nil {
			return nil, err
		}
		var mp, nm []float64
		for _, pr := range perRun {
			mp = append(mp, pr.mp)
			nm = append(nm, pr.nm)
		}
		mpS, nmS := stats.Summarize(mp), stats.Summarize(nm)
		red := 0.0
		if nmS.Mean > 0 {
			red = (nmS.Mean - mpS.Mean) / nmS.Mean
		}
		t.addRow(
			fmt.Sprintf("%d", n),
			fmtSummary(mpS),
			fmtSummary(nmS),
			fmt.Sprintf("%.1f%%", 100*red),
		)
	}
	return t, nil
}
