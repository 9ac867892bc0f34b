package replication

import (
	"math"
	"math/rand"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

func setup(t *testing.T, l int, seed int64) (*model.PPDC, model.Workload, model.SFC) {
	t.Helper()
	ft := topology.MustFatTree(4, nil)
	d := model.MustNew(ft, model.Options{})
	rng := rand.New(rand.NewSource(seed))
	w := workload.MustPairsClustered(ft, l, 4, workload.DefaultIntraRack, rng)
	return d, w, model.NewSFC(3)
}

func TestPlaceSingleReplicaMatchesDP(t *testing.T) {
	d, w, sfc := setup(t, 20, 1)
	dep, err := Place(d, w, sfc, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, dpCost, err := (placement.DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dep.Cost-dpCost) > 1e-6 {
		t.Fatalf("one replica cost %v != DP cost %v", dep.Cost, dpCost)
	}
	if len(dep.Chains) != 1 || len(dep.Assign) != len(w) {
		t.Fatalf("deployment shape: %d chains, %d assigns", len(dep.Chains), len(dep.Assign))
	}
}

func TestMoreReplicasNeverHurt(t *testing.T) {
	d, w, sfc := setup(t, 40, 2)
	prev := -1.0
	for r := 1; r <= 3; r++ {
		dep, err := Place(d, w, sfc, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Validate every chain and assignment.
		if len(dep.Chains) != r {
			t.Fatalf("r=%d: %d chains", r, len(dep.Chains))
		}
		for c, chain := range dep.Chains {
			if err := chain.Validate(d, sfc); err != nil {
				t.Fatalf("r=%d chain %d: %v", r, c, err)
			}
		}
		for i, a := range dep.Assign {
			if a < 0 || a >= r {
				t.Fatalf("r=%d flow %d assigned to %d", r, i, a)
			}
		}
		if prev >= 0 && dep.Cost > prev*1.0001 {
			// Lloyd alternation is heuristic, but each flow always has
			// chain 0's option available, so cost should not regress
			// meaningfully with more replicas.
			t.Fatalf("r=%d cost %v worse than r-1 cost %v", r, dep.Cost, prev)
		}
		prev = dep.Cost
	}
}

func TestCommCostMatchesManualSum(t *testing.T) {
	d, w, sfc := setup(t, 15, 3)
	dep, err := Place(d, w, sfc, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, f := range w {
		sum += d.FlowCost(f, dep.Chains[dep.Assign[i]])
	}
	if got := CommCost(d, w, dep.Chains, dep.Assign); got != sum {
		t.Fatalf("CommCost %v != manual %v", got, sum)
	}
	if dep.Cost != sum {
		t.Fatalf("deployment cost %v != manual %v", dep.Cost, sum)
	}
}

func TestReassignAdaptsToNewRates(t *testing.T) {
	d, w, sfc := setup(t, 30, 4)
	dep, err := Place(d, w, sfc, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	w2 := w.WithRates(workload.Rates(len(w), rng))
	assign2, cost2 := Reassign(d, w2, dep.Chains)
	if len(assign2) != len(w2) || cost2 <= 0 {
		t.Fatalf("reassignment of %d flows: %d assigned, cost %v", len(w2), len(assign2), cost2)
	}
	// Reassignment is per-flow optimal given the chains: no other
	// assignment can beat it.
	for i := range w2 {
		for c := range dep.Chains {
			if d.FlowCost(w2[i], dep.Chains[c]) < d.FlowCost(w2[i], dep.Chains[assign2[i]])-1e-9 {
				t.Fatalf("flow %d not on its cheapest chain", i)
			}
		}
	}
	stale := CommCost(d, w2, dep.Chains, dep.Assign)
	if cost2 > stale+1e-9 {
		t.Fatalf("reassignment %v worse than stale assignment %v", cost2, stale)
	}
}

func TestPlaceErrors(t *testing.T) {
	d, w, sfc := setup(t, 10, 6)
	if _, err := Place(d, w, sfc, 0, Options{}); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := Place(d, nil, sfc, 1, Options{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}
