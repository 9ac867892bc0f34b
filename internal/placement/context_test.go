package placement

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// countdownCtx reports Canceled starting from the (after+1)-th Err()
// poll, making mid-search cancellation deterministic in tests.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// bigInstance is tuned so the branch-and-bound lower bound prunes
// poorly: a random mesh with link weights spread over two orders of
// magnitude and unit switch capacity. The seeded n=9 search takes well
// over 1024 expansions (n=7 closes in under 600), so the first
// in-search context poll is reached deterministically.
func bigInstance(t *testing.T) (*model.PPDC, model.Workload, model.SFC) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	mean, half := 5.0, 4.9 // link delays uniform on [mean−half, mean+half]
	mesh, err := topology.RandomMesh(24, 12, 30, func() float64 { return mean - half + 2*half*rng.Float64() }, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustNew(mesh, model.Options{SwitchCapacity: 1})
	hosts := mesh.Hosts
	w := make(model.Workload, 12)
	for i := range w {
		w[i] = model.VMPair{
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
			Rate: 1 + rng.Float64(),
		}
	}
	return d, w, model.NewSFC(9)
}

func TestPlaceContextPreCancelled(t *testing.T) {
	d, w, sfc := bigInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, _, proven, err := (Optimal{}).placeProven(ctx, d.NewWorkloadCache(w).Problem(sfc))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
	if proven || p != nil {
		t.Fatalf("pre-cancelled search returned p=%v proven=%v", p, proven)
	}
}

// TestPlaceContextMidSearch: cancellation after the first in-search poll
// returns the incumbent — here the DP seed or better — with
// proven=false and ctx.Err().
func TestPlaceContextMidSearch(t *testing.T) {
	d, w, sfc := bigInstance(t)
	_, seedCost, err := (DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	// Poll 1 is the pre-search check; poll 2 (after 1024 expansions)
	// cancels.
	cc := &countdownCtx{Context: context.Background(), after: 1}
	p, c, proven, err := (Optimal{Seed: DP{}}).placeProven(cc, d.NewWorkloadCache(w).Problem(sfc))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled (search may be too small: %d polls)", err, cc.calls.Load())
	}
	if proven {
		t.Fatal("cancelled search claimed proven optimality")
	}
	if err := p.Validate(d, sfc); err != nil {
		t.Fatalf("cancelled incumbent invalid: %v", err)
	}
	if c > seedCost || math.IsInf(c, 0) {
		t.Fatalf("incumbent cost %v worse than its own seed %v", c, seedCost)
	}
	if got := d.CommCost(w, p); math.Abs(got-c) > 1e-9*math.Max(1, got) {
		t.Fatalf("reported cost %v != recomputed %v", c, got)
	}
}

// TestPlaceContextCompletesUncancelled: a background context changes
// nothing relative to Place.
func TestPlaceContextCompletesUncancelled(t *testing.T) {
	d, w, _ := bigInstance(t)
	small := model.NewSFC(3)
	p1, c1, err := (Optimal{Seed: DP{}}).Place(d, w, small)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := d.NewProblem(w, small)
	if err != nil {
		t.Fatal(err)
	}
	p2, c2, err := Solve(context.Background(), Optimal{Seed: DP{}}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || !p1.Equal(p2) {
		t.Fatalf("context run diverged: %v/%v vs %v/%v", p1, c1, p2, c2)
	}
}

func TestSearchExpansionsAdvances(t *testing.T) {
	d, w, sfc := bigInstance(t)
	before := SearchExpansions()
	if _, _, err := (Optimal{NodeBudget: 2000, Seed: DP{}}).Place(d, w, sfc); err != nil {
		t.Fatal(err)
	}
	if got := SearchExpansions() - before; got <= 0 {
		t.Fatalf("expansion counter advanced by %d", got)
	}
}
