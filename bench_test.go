// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VI), plus ablations of the design choices DESIGN.md
// calls out. Each figure bench runs its experiment at QuickConfig scale
// (single repetition) so `go test -bench=.` finishes in minutes; the
// paper-scale tables are produced by `go run ./cmd/vnfsim` (see
// EXPERIMENTS.md for recorded paper-vs-measured results).
package vnfopt_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/experiments"
	"vnfopt/internal/graph"
	"vnfopt/internal/ilp"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/sim"
	"vnfopt/internal/stroll"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// benchConfig is the per-iteration experiment scale for figure benches.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Runs = 1
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure -------------------------------

// BenchmarkExample1 regenerates the worked Example 1 / Fig. 3 numbers
// (410 → 1004 → migrate at cost 6 → 410; 58.6% reduction).
func BenchmarkExample1(b *testing.B) { runExperiment(b, "example1") }

// BenchmarkFig6bParetoFront regenerates Fig. 6(b): the (C_b, C_a) Pareto
// front of parallel migration frontiers.
func BenchmarkFig6bParetoFront(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkFig7Top1 regenerates Fig. 7: TOP-1 algorithms vs n.
func BenchmarkFig7Top1(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8DiurnalModel regenerates Fig. 8: the Eq. 9 daily pattern.
func BenchmarkFig8DiurnalModel(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9aVaryFlows regenerates Fig. 9(a): TOP cost vs l.
func BenchmarkFig9aVaryFlows(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9bVaryVNFs regenerates Fig. 9(b): TOP cost vs n.
func BenchmarkFig9bVaryVNFs(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFig10Weighted regenerates Fig. 10: TOP on weighted PPDCs.
func BenchmarkFig10Weighted(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11aDynamicDay and BenchmarkFig11bMigrationCounts regenerate
// Fig. 11(a)/(b) — they share one simulation, exposed as experiment
// fig11ab.
func BenchmarkFig11aDynamicDay(b *testing.B) { runExperiment(b, "fig11ab") }

// BenchmarkFig11bMigrationCounts is the Fig. 11(b) alias of the shared
// day simulation (the migration-count table of fig11ab).
func BenchmarkFig11bMigrationCounts(b *testing.B) { runExperiment(b, "fig11ab") }

// BenchmarkFig11cVaryFlows regenerates Fig. 11(c): daily cost vs l at
// μ = 10⁴ and 10⁵.
func BenchmarkFig11cVaryFlows(b *testing.B) { runExperiment(b, "fig11c") }

// BenchmarkFig11dVaryVNFs regenerates Fig. 11(d): daily cost vs n,
// mPareto against NoMigration.
func BenchmarkFig11dVaryVNFs(b *testing.B) { runExperiment(b, "fig11d") }

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationRawGraphVsClosure quantifies the paper's Example 2
// point: Algorithm 2 fed the raw PPDC adjacency (non-edges priced at the
// shortest-path-free penalty) instead of the metric closure G” finds
// worse strolls. Reported metrics: mean stroll cost on the closure vs the
// raw adjacency.
func BenchmarkAblationRawGraphVsClosure(b *testing.B) {
	// The paper's own Fig. 4 instance: on the raw graph Algorithm 2 finds
	// the 3-edge path s,A,B,t of cost 7; on the closure it finds the
	// optimal walk of cost 6 (s,D,t,C,t).
	g := graph.New(6)
	g.AddEdge(0, 1, 3) // s-A
	g.AddEdge(1, 2, 2) // A-B
	g.AddEdge(2, 5, 2) // B-t
	g.AddEdge(0, 4, 2) // s-D
	g.AddEdge(4, 5, 2) // D-t
	g.AddEdge(3, 5, 1) // C-t
	apsp := graph.AllPairs(g)
	keep := []int{0, 1, 2, 3, 4, 5}
	closure := apsp.CostMatrix(keep)
	// Raw adjacency matrix: existing edges keep their weight, non-edges
	// get a large-but-finite penalty so the DP remains well-defined.
	const penalty = 1e6
	raw := make([][]float64, len(keep))
	for i := range keep {
		raw[i] = make([]float64, len(keep))
		for j := range keep {
			switch {
			case i == j:
				raw[i][j] = 0
			case g.HasEdge(keep[i], keep[j]):
				raw[i][j] = g.EdgeWeight(keep[i], keep[j])
			default:
				raw[i][j] = penalty
			}
		}
	}
	var closureCost, rawCost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := stroll.DP(stroll.Instance{Cost: closure, S: 0, T: 5, N: 2})
		if err != nil {
			b.Fatal(err)
		}
		rr, err := stroll.DP(stroll.Instance{Cost: raw, S: 0, T: 5, N: 2})
		if err != nil {
			b.Fatal(err)
		}
		closureCost, rawCost = rc.Cost, rr.Cost
	}
	b.ReportMetric(closureCost, "closure-cost")
	b.ReportMetric(rawCost, "raw-cost")
}

// BenchmarkAblationFullFrontier measures what Algorithm 5's restriction to
// parallel frontiers (Definition 2) gives up against the full Π h_j
// frontier space (Definition 1): the cost gap and the enumeration size.
func BenchmarkAblationFullFrontier(b *testing.B) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	sfc := model.NewSFC(3)
	// Scan seeds for a scenario where the rate shift actually moves the
	// optimum (p' ≠ p), so the frontier space is non-trivial.
	var w2 model.Workload
	var p, pNew model.Placement
	for seed := int64(1); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := workload.MustPairsClustered(ft, 20, 4, workload.DefaultIntraRack, rng)
		p0, _, err := (placement.DP{}).Place(d, w, sfc)
		if err != nil {
			b.Fatal(err)
		}
		shifted := w.WithRates(workload.Rates(len(w), rng))
		p1, _, err := (placement.DP{}).Place(d, shifted, sfc)
		if err != nil {
			b.Fatal(err)
		}
		if !p0.Equal(p1) {
			w2, p, pNew = shifted, p0, p1
			break
		}
	}
	if pNew == nil {
		b.Fatal("no seed produced a moving optimum")
	}
	const mu = 200
	var parallelBest, fullBest float64
	var enumerated int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := migration.ParallelFrontiers(d, w2, sfc, p, pNew, mu)
		parallelBest = points[0].Cb + points[0].Ca
		for _, fp := range points {
			if fp.Valid && fp.Cb+fp.Ca < parallelBest {
				parallelBest = fp.Cb + fp.Ca
			}
		}
		full := migration.FullFrontiers(d, w2, sfc, p, pNew, mu, 0)
		fullBest = full.BestCt
		enumerated = full.Enumerated
	}
	b.ReportMetric(parallelBest, "parallel-Ct")
	b.ReportMetric(fullBest, "full-Ct")
	b.ReportMetric(float64(enumerated), "full-combos")
}

// BenchmarkAblationColocation quantifies footnote 3's distinct-switch
// constraint: with colocation allowed (paper future work) the whole chain
// stacks on one switch, the chain cost Σ c(p(j), p(j+1)) is zero, and the
// optimum is the n = 1 optimum min_v (in[v] + eg[v]).
func BenchmarkAblationColocation(b *testing.B) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(5))
	w := workload.MustPairsClustered(ft, 30, 4, workload.DefaultIntraRack, rng)
	var distinct, colocated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cd, err := (placement.DP{}).Place(d, w, model.NewSFC(5))
		if err != nil {
			b.Fatal(err)
		}
		_, cc, err := (placement.DP{}).Place(d, w, model.NewSFC(1))
		if err != nil {
			b.Fatal(err)
		}
		distinct, colocated = cd, cc
	}
	if r := colocated / distinct; r < 0.55 || r > 0.65 {
		b.Fatalf("colocated/distinct C_a = %.3f at n=5, EXPERIMENTS.md records ≈ 0.60", r)
	}
	b.ReportMetric(distinct, "distinct-Ca")
	b.ReportMetric(colocated, "colocated-Ca")
}

// BenchmarkAblationHysteresis quantifies the engine's drift trigger
// (engine.Policy.Hysteresis, the when-to-migrate knob vnfoptd runs): a
// higher threshold consults mPareto on fewer hours, trading day cost for
// placement stability.
func BenchmarkAblationHysteresis(b *testing.B) {
	ft := topology.MustFatTree(8, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(9))
	base := workload.MustPairsClustered(ft, 64, 4, workload.DefaultIntraRack, rng)
	sched, err := workload.PaperBurst().Schedule(ft, base, rng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		PPDC: d, SFC: model.NewSFC(4), Base: base, Schedule: sched,
		Mu: 1e4, HourVolume: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	levels := []float64{0, 1.5, 5, 50}
	results := map[float64]*sim.Trace{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range levels {
			tr, err := s.RunEngine(migration.MPareto{}, engine.Policy{Hysteresis: h})
			if err != nil {
				b.Fatal(err)
			}
			results[h] = tr
		}
	}
	for _, h := range levels {
		suffix := "-h" + strconv.FormatFloat(h, 'g', -1, 64)
		b.ReportMetric(results[h].Total, "cost"+suffix)
		b.ReportMetric(float64(results[h].TotalMoves), "moves"+suffix)
	}
}

// BenchmarkAblationILPPathAssumption runs the paper's Eq. 2-7 ILP against
// the walk-based optimum on the Fig. 4 instance: the ILP's implicit
// path assumption costs it exactly one unit (7 vs 6).
func BenchmarkAblationILPPathAssumption(b *testing.B) {
	g := graph.New(6)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 5, 2)
	g.AddEdge(0, 4, 2)
	g.AddEdge(4, 5, 2)
	g.AddEdge(3, 5, 1)
	p := &ilp.TOP1{G: g, S: 0, T: 5, N: 2, Lambda: 1, Switches: []int{1, 2, 3, 4}}
	apsp := graph.AllPairs(g)
	keep := []int{0, 1, 2, 3, 4, 5}
	var ilpCost, walkCost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, c, err := p.SolveBruteForce()
		if err != nil {
			b.Fatal(err)
		}
		res, err := stroll.Exhaustive(stroll.Instance{Cost: apsp.CostMatrix(keep), S: 0, T: 5, N: 2}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ilpCost, walkCost = c, res.Cost
	}
	b.ReportMetric(ilpCost, "ilp-path-cost")
	b.ReportMetric(walkCost, "walk-cost")
}

// --- Micro-benchmarks of the hot paths -----------------------------------

// BenchmarkAPSPFatTree measures the all-pairs shortest-path cache build
// in full, comparing the sequential [][]Edge oracle against the CSR
// kernel at one worker and at GOMAXPROCS. AllPairs builds a row on its
// first read, so the CSR variants read every row through Diameter — one
// batch of all |V| rows, as a full build was before rows were lazy — and
// the figures in results/BENCH_apsp.json stay comparable; the scan adds
// a few per cent. A model reads far fewer rows (448 of 1 344 in the
// fault-storm scenario). Output is bit-identical across all three
// (asserted in internal/graph tests); only time and allocations differ.
func BenchmarkAPSPFatTree(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		ft := topology.MustFatTree(k, nil)
		b.Run("k="+strconv.Itoa(k)+"/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.AllPairsSequential(ft.Graph)
			}
		})
		b.Run("k="+strconv.Itoa(k)+"/csr-1worker", func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a batch of rows fans out over GOMAXPROCS workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.AllPairs(ft.Graph).Diameter()
			}
		})
		b.Run("k="+strconv.Itoa(k)+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.AllPairs(ft.Graph).Diameter()
			}
		})
	}
}

// BenchmarkCommCostAggregated is the candidate-evaluation half of the
// kernel work: scalar C_a rescans all l flows per placement; the
// aggregated workload cache answers in O(n). At l = 10⁴ the gap is the
// difference between TOP solvers that evaluate thousands of candidates
// being workload-bound or topology-bound. "cache-build" prices the
// one-time aggregation (also the SetWorkload rate-update hook).
func BenchmarkCommCostAggregated(b *testing.B) {
	for _, tc := range []struct{ k, l int }{{8, 10_000}, {16, 10_000}} {
		ft := topology.MustFatTree(tc.k, nil)
		d := model.MustNew(ft, model.Options{})
		rng := rand.New(rand.NewSource(3))
		w := workload.MustPairsClustered(ft, tc.l, 8, workload.DefaultIntraRack, rng)
		sfc := model.NewSFC(5)
		p, _, err := (placement.Steering{}).Place(d, w, sfc)
		if err != nil {
			b.Fatal(err)
		}
		prefix := "k=" + strconv.Itoa(tc.k) + "/l=" + strconv.Itoa(tc.l)
		b.Run(prefix+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = d.CommCost(w, p)
			}
		})
		b.Run(prefix+"/cached", func(b *testing.B) {
			cache := d.NewWorkloadCache(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = cache.CommCost(p)
			}
		})
		b.Run(prefix+"/cache-build", func(b *testing.B) {
			cache := d.NewWorkloadCache(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache.SetWorkload(w)
			}
		})
		b.Run(prefix+"/endpoint-scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = d.EndpointCosts(w)
			}
		})
	}
}

// BenchmarkDPPlacement measures the paper's Algorithm 3 end to end.
func BenchmarkDPPlacement(b *testing.B) {
	for _, tc := range []struct {
		k, l, n int
	}{{4, 30, 3}, {8, 100, 5}, {16, 512, 7}} {
		name := "k=" + strconv.Itoa(tc.k) + "/l=" + strconv.Itoa(tc.l) + "/n=" + strconv.Itoa(tc.n)
		b.Run(name, func(b *testing.B) {
			ft := topology.MustFatTree(tc.k, nil)
			d := model.MustNew(ft, model.Options{})
			rng := rand.New(rand.NewSource(1))
			w := workload.MustPairsClustered(ft, tc.l, 6, workload.DefaultIntraRack, rng)
			sfc := model.NewSFC(tc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := (placement.DP{}).Place(d, w, sfc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMPareto measures the paper's Algorithm 5 end to end (including
// its internal Algorithm 3 call).
func BenchmarkMPareto(b *testing.B) {
	for _, k := range []int{8, 16} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			ft := topology.MustFatTree(k, nil)
			d := model.MustNew(ft, model.Options{})
			rng := rand.New(rand.NewSource(2))
			w := workload.MustPairsClustered(ft, 128, 6, workload.DefaultIntraRack, rng)
			sfc := model.NewSFC(5)
			p, _, err := (placement.DP{}).Place(d, w, sfc)
			if err != nil {
				b.Fatal(err)
			}
			w2 := w.WithRates(workload.Rates(len(w), rng))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := (migration.MPareto{}).Migrate(d, w2, sfc, p, 1e4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrollDP measures Algorithm 2 on the k=8 closure.
func BenchmarkStrollDP(b *testing.B) {
	ft := topology.MustFatTree(8, nil)
	apsp := graph.AllPairs(ft.Graph)
	keep := append([]int{ft.Hosts[0], ft.Hosts[100]}, ft.Switches...)
	cost := apsp.CostMatrix(keep)
	for _, n := range []int{3, 6, 9} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stroll.DP(stroll.Instance{Cost: cost, S: 0, T: 1, N: n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- sanity: the bench tables remain well-formed -------------------------

// TestBenchExperimentsProduceRows guards the figure benches: every
// experiment id they reference must exist and emit rows.
func TestBenchExperimentsProduceRows(t *testing.T) {
	ids := []string{"example1", "fig6b", "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11ab", "fig11c", "fig11d"}
	available := strings.Join(experiments.IDs(), ",")
	for _, id := range ids {
		if !strings.Contains(available, id) {
			t.Errorf("experiment %q missing from registry (%s)", id, available)
		}
	}
}

// BenchmarkExtensionLinkLoad regenerates the link-load extension
// experiment (routed bandwidth view of migration vs frozen placement).
func BenchmarkExtensionLinkLoad(b *testing.B) { runExperiment(b, "linkload") }

// BenchmarkExtensionMuSweep regenerates the μ-sensitivity sweep
// (migration activity and cost across four orders of magnitude of μ).
func BenchmarkExtensionMuSweep(b *testing.B) { runExperiment(b, "musweep") }
