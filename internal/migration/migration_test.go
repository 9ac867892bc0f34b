package migration

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// fig3 reproduces the paper's Fig. 3 migration scenario: k=2 fat tree,
// initial placement (e1.1, a1.1) = (s1, s2), rates swapped to ⟨1, 100⟩,
// μ = 1. The best migration reaches total cost 416 (C_b = 6, C_a = 410).
func fig3(t *testing.T) (*model.PPDC, model.Workload, model.SFC, model.Placement) {
	t.Helper()
	d := model.MustNew(topology.MustFatTree(2, nil), model.Options{})
	byLabel := map[string]int{}
	for v, l := range d.Topo.Labels {
		byLabel[l] = v
	}
	h1, h2 := byLabel["h1"], byLabel["h2"]
	w := model.Workload{
		{Src: h1, Dst: h1, Rate: 1},
		{Src: h2, Dst: h2, Rate: 100},
	}
	p := model.Placement{byLabel["e1.1"], byLabel["a1.1"]}
	return d, w, model.NewSFC(2), p
}

func TestFig3MPareto(t *testing.T) {
	d, w, sfc, p := fig3(t)
	m, ct, err := (MPareto{}).Migrate(d, w, sfc, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ct != 416 {
		t.Fatalf("mPareto C_t = %v, want 416 (paper Fig. 3: 6 + 410)", ct)
	}
	if err := m.Validate(d, sfc); err != nil {
		t.Fatal(err)
	}
	if MigrationCount(p, m) != 2 {
		t.Fatalf("expected both VNFs to move, got %d", MigrationCount(p, m))
	}
}

func TestFig3ExhaustiveMatches(t *testing.T) {
	d, w, sfc, p := fig3(t)
	m, ct, proven, err := (Exhaustive{}).MigrateProven(d, w, sfc, p, 1)
	if err != nil || !proven {
		t.Fatalf("%v proven=%v", err, proven)
	}
	if ct != 416 {
		t.Fatalf("optimal C_t = %v, want 416", ct)
	}
	if err := m.Validate(d, sfc); err != nil {
		t.Fatal(err)
	}
}

func TestNoMigration(t *testing.T) {
	d, w, sfc, p := fig3(t)
	m, ct, err := (NoMigration{}).Migrate(d, w, sfc, p, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(p) {
		t.Fatalf("NoMigration moved: %v -> %v", p, m)
	}
	if ct != 1004 {
		t.Fatalf("C_t = %v, want C_a(p) = 1004", ct)
	}
}

func TestHugeMuFreezesMigration(t *testing.T) {
	// When migration traffic dwarfs any possible communication saving,
	// every sensible migrator stays put.
	d, w, sfc, p := fig3(t)
	const mu = 1e9
	for _, mig := range []Migrator{MPareto{}, Exhaustive{}} {
		m, ct, err := mig.Migrate(d, w, sfc, p, mu)
		if err != nil {
			t.Fatalf("%s: %v", mig.Name(), err)
		}
		if !m.Equal(p) {
			t.Errorf("%s migrated despite μ=1e9: %v -> %v", mig.Name(), p, m)
		}
		if want := d.CommCost(w, p); math.Abs(ct-want) > 1e-6 {
			t.Errorf("%s C_t = %v, want %v", mig.Name(), ct, want)
		}
	}
}

func TestZeroMuReducesToPlacement(t *testing.T) {
	// Theorem 4: TOP is TOM with μ=0 — free migration reaches the newly
	// optimal placement's cost.
	d, w, sfc, p := fig3(t)
	_, ct, err := (MPareto{}).Migrate(d, w, sfc, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, placeCost, err := (placement.DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ct-placeCost) > 1e-6 {
		t.Fatalf("μ=0 C_t = %v, want placement cost %v", ct, placeCost)
	}
	_, optCt, proven, err := (Exhaustive{}).MigrateProven(d, w, sfc, p, 0)
	if err != nil || !proven {
		t.Fatal(err)
	}
	_, optPlace, _, err := (placement.Optimal{}).PlaceProven(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(optCt-optPlace) > 1e-6 {
		t.Fatalf("optimal TOM(μ=0) = %v != optimal TOP %v", optCt, optPlace)
	}
}

func TestMigratorsNeverWorseThanStaying(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		w := workload.MustPairs(ft, 15, workload.DefaultIntraRack, rng)
		sfc := model.NewSFC(3)
		p, _, err := (placement.DP{}).Place(d, w, sfc)
		if err != nil {
			t.Fatal(err)
		}
		// Shuffle rates to create the dynamic-traffic situation.
		w2 := w.WithRates(workload.Rates(len(w), rng))
		stay := d.CommCost(w2, p)
		for _, mig := range []Migrator{MPareto{}, Exhaustive{}} {
			m, ct, err := mig.Migrate(d, w2, sfc, p, 100)
			if err != nil {
				t.Fatalf("%s: %v", mig.Name(), err)
			}
			if ct > stay+1e-6 {
				t.Errorf("trial %d: %s C_t %v worse than staying %v", trial, mig.Name(), ct, stay)
			}
			if got := d.TotalCost(w2, p, m, 100); math.Abs(got-ct) > 1e-6 {
				t.Errorf("trial %d: %s reported %v but placement evaluates to %v", trial, mig.Name(), ct, got)
			}
		}
	}
}

func TestExhaustiveIsLowerBoundForHeuristics(t *testing.T) {
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5; trial++ {
		w := workload.MustPairs(ft, 10, workload.DefaultIntraRack, rng)
		sfc := model.NewSFC(3)
		p, _, err := (placement.DP{}).Place(d, w, sfc)
		if err != nil {
			t.Fatal(err)
		}
		w2 := w.WithRates(workload.Rates(len(w), rng))
		_, optCt, proven, err := (Exhaustive{Seed: MPareto{}}).MigrateProven(d, w2, sfc, p, 500)
		if err != nil || !proven {
			t.Fatalf("%v proven=%v", err, proven)
		}
		for _, mig := range []Migrator{MPareto{}, NoMigration{}} {
			_, ct, err := mig.Migrate(d, w2, sfc, p, 500)
			if err != nil {
				t.Fatal(err)
			}
			if ct < optCt-1e-6 {
				t.Fatalf("trial %d: %s C_t %v below optimal %v", trial, mig.Name(), ct, optCt)
			}
		}
	}
}

func TestBoundSandwich(t *testing.T) {
	// relaxation bound ≤ true optimum, on 60 instances per n; tight pins
	// how many bounds meet the optimum.
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct{ n, tight int }{{3, 51}, {4, 54}} {
		tight := 0
		for trial := 0; trial < 60; trial++ {
			w := workload.MustPairs(ft, 8, workload.DefaultIntraRack, rng)
			sfc := model.NewSFC(tc.n)
			p, _, err := (placement.DP{}).Place(d, w, sfc)
			if err != nil {
				t.Fatal(err)
			}
			w2 := w.WithRates(workload.Rates(len(w), rng))
			pr, err := d.NewProblem(w2, sfc)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := Bound(pr, p, 200)
			if err != nil {
				t.Fatal(err)
			}
			_, opt, proven, err := (Exhaustive{Seed: MPareto{}}).MigrateProven(d, w2, sfc, p, 200)
			if err != nil || !proven {
				t.Fatal(err)
			}
			if bound > opt+1e-6 {
				t.Fatalf("n=%d trial %d: bound %v above optimum %v", tc.n, trial, bound, opt)
			}
			if math.Abs(bound-opt) <= 1e-9*opt {
				tight++
			}
		}
		if tight != tc.tight {
			t.Errorf("n=%d: bound equals the optimum in %d of 60 instances, want %d", tc.n, tight, tc.tight)
		}
	}
}

func TestParallelFrontiersEndpoints(t *testing.T) {
	d, w, sfc, p := fig3(t)
	pNew, _, err := (placement.DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	points := ParallelFrontiers(d, w, sfc, p, pNew, 1)
	if len(points) < 2 {
		t.Fatalf("only %d frontiers", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if !first.Frontier.Equal(p) || first.Cb != 0 {
		t.Fatalf("first frontier = %+v, want p with C_b 0", first)
	}
	if !last.Frontier.Equal(pNew) {
		t.Fatalf("last frontier = %v, want p' = %v", last.Frontier, pNew)
	}
	// C_b must be non-decreasing along the sweep (VNFs only move toward
	// p' on shortest paths).
	for i := 1; i < len(points); i++ {
		if points[i].Cb < points[i-1].Cb-1e-9 {
			t.Fatalf("C_b decreased at frontier %d: %v -> %v", i, points[i-1].Cb, points[i].Cb)
		}
	}
}

func TestFig3FrontierSweepIsParetoFront(t *testing.T) {
	d, w, sfc, p := fig3(t)
	pNew, _, err := (placement.DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	points := ParallelFrontiers(d, w, sfc, p, pNew, 1)
	if !IsParetoFront(points) {
		t.Fatalf("Fig. 3 frontier sweep is not a Pareto front: %+v", points)
	}
}

func TestParetoFilter(t *testing.T) {
	pts := []FrontierPoint{
		{Cb: 0, Ca: 10},
		{Cb: 1, Ca: 8},
		{Cb: 2, Ca: 9}, // dominated by (1,8)
		{Cb: 3, Ca: 5},
	}
	got := paretoFilter(pts)
	if len(got) != 3 {
		t.Fatalf("filtered = %+v", got)
	}
	for _, fp := range got {
		if fp.Cb == 2 {
			t.Fatal("dominated point survived")
		}
	}
}

func TestIsParetoFrontDetectsViolation(t *testing.T) {
	// Non-dominated zig-zag cannot happen post-filter; craft a filtered
	// sweep where Ca rises: impossible after paretoFilter, so check a
	// Cb-order violation instead (front listed backwards).
	pts := []FrontierPoint{
		{Cb: 3, Ca: 5},
		{Cb: 0, Ca: 10},
	}
	if IsParetoFront(pts) {
		t.Fatal("out-of-order sweep accepted as Pareto front")
	}
}

func TestIsConvexFront(t *testing.T) {
	convex := []FrontierPoint{
		{Cb: 0, Ca: 10},
		{Cb: 1, Ca: 4},
		{Cb: 2, Ca: 1},
		{Cb: 3, Ca: 0},
	}
	if !IsConvexFront(convex) {
		t.Fatal("convex front rejected")
	}
	concave := []FrontierPoint{
		{Cb: 0, Ca: 10},
		{Cb: 1, Ca: 7},
		{Cb: 2, Ca: 1},
	}
	if IsConvexFront(concave) {
		t.Fatal("concave front accepted")
	}
}

func TestMigrationCount(t *testing.T) {
	p := model.Placement{1, 2, 3}
	m := model.Placement{1, 5, 3}
	if MigrationCount(p, m) != 1 {
		t.Fatal("count")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	MigrationCount(p, model.Placement{1})
}

func TestCheckInputs(t *testing.T) {
	d, w, sfc, p := fig3(t)
	if _, _, err := (MPareto{}).Migrate(nil, w, sfc, p, 1); err == nil {
		t.Fatal("nil PPDC accepted")
	}
	if _, _, err := (MPareto{}).Migrate(d, w, sfc, p, -1); err == nil {
		t.Fatal("negative mu accepted")
	}
	if _, _, err := (MPareto{}).Migrate(d, w, sfc, model.Placement{p[0]}, 1); err == nil {
		t.Fatal("short placement accepted")
	}
	bad := model.Workload{{Src: -1, Dst: 0, Rate: 1}}
	if _, _, err := (MPareto{}).Migrate(d, bad, sfc, p, 1); err == nil {
		t.Fatal("bad workload accepted")
	}
}
