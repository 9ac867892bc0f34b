package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/stroll"
	"vnfopt/internal/topology"
	"vnfopt/internal/workload"
)

// exactFloorDP is Algorithm 3 with the switch closure materialised: fresh
// DP tables over a dense CostMatrix of the switches, pruned with the
// closure's exact floor — its least cost between two distinct switches —
// rather than DP's least link weight. Otherwise it is DP's sweep.
func exactFloorDP(ctx context.Context, pr model.Problem) (model.Placement, float64, error) {
	d, w, sfc := pr.PPDC, pr.Workload, pr.SFC
	if err := checkInputs(d, w, sfc); err != nil {
		return nil, 0, err
	}
	n := sfc.Len()
	in, eg := pr.Cache.EndpointCosts()
	sw := d.Topo.Switches
	cost := d.APSP.CostMatrix(sw)
	floor := closureFloor(cost)
	lambda := w.TotalRate()
	bestCost := math.Inf(1)
	var best model.Placement
	if p, c, err := (Steering{}).PlaceProblem(ctx, pr); err == nil {
		best, bestCost = p, c
	}
	minIn := math.Inf(1)
	for _, v := range sw {
		minIn = min(minIn, in[v])
	}
	chainLB := lambda * float64(n-1) * floor
	egOrder := make([]int, len(sw))
	for i := range egOrder {
		egOrder[i] = i
	}
	sort.Slice(egOrder, func(x, y int) bool { return eg[sw[egOrder[x]]] < eg[sw[egOrder[y]]] })
	inOrder := append([]int(nil), egOrder...)
	sort.Slice(inOrder, func(x, y int) bool { return in[sw[inOrder[x]]] < in[sw[inOrder[y]]] })
	tabs := make([]*stroll.DPTable, len(sw))
	for _, tj := range egOrder {
		egT := eg[sw[tj]]
		if egT+minIn+chainLB >= bestCost {
			break
		}
		for _, sj := range inOrder {
			if sj == tj {
				continue
			}
			if in[sw[sj]]+egT+chainLB >= bestCost {
				break
			}
			if tabs[tj] == nil {
				tabs[tj] = stroll.NewDPTable(stroll.Matrix(cost), tj)
			}
			res, err := tabs[tj].Stroll(sj, n-2, 0)
			if err != nil {
				return nil, 0, err
			}
			if cand := in[sw[sj]] + egT + lambda*res.Cost; cand < bestCost {
				p := model.Placement{sw[sj]}
				for _, v := range res.Visited {
					p = append(p, sw[v])
				}
				best, bestCost = append(p, sw[tj]), cand
			}
		}
	}
	if best == nil {
		return nil, 0, errNoPlacement(n)
	}
	return best, d.CommCost(w, best), nil
}

// TestDPFloorMatchesExactFloor holds DP, which prunes with the fabric's
// least link weight and reads the closure through the cost cache's view,
// to exactFloorDP on random fat trees and jellyfish, with unit and
// PaperDelay weights, under random fault sets — links cut, switches and
// hosts failed, links degraded by factors on both sides of 1 — and chains
// of 3 to 5 VNFs. The looser floor only lets DP evaluate more candidates,
// so the placement, the cost bits and the error must all be the same.
func TestDPFloorMatchesExactFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	type fabric struct {
		name  string
		build func(topology.WeightFunc) (*topology.Topology, error)
	}
	fabrics := []fabric{
		{"fat-tree(4)", func(wf topology.WeightFunc) (*topology.Topology, error) { return topology.FatTree(4, wf) }},
		{"fat-tree(6)", func(wf topology.WeightFunc) (*topology.Topology, error) { return topology.FatTree(6, wf) }},
		{"jellyfish(20,4)", func(wf topology.WeightFunc) (*topology.Topology, error) {
			return topology.Jellyfish(20, 4, 2, wf, rand.New(rand.NewSource(rng.Int63())))
		}},
		{"jellyfish(32,5)", func(wf topology.WeightFunc) (*topology.Topology, error) {
			return topology.Jellyfish(32, 5, 2, wf, rand.New(rand.NewSource(rng.Int63())))
		}},
	}
	compared, looser := 0, 0
	for _, fb := range fabrics {
		for _, weights := range []string{"unit", "paper-delay"} {
			var wf topology.WeightFunc
			if weights == "paper-delay" {
				wf = topology.PaperDelay(rng)
			}
			topo, err := fb.build(wf)
			if err != nil {
				t.Fatal(err)
			}
			d := model.MustNew(topo, model.Options{})
			w := workload.MustPairs(topo, 30, workload.DefaultIntraRack, rng)
			for trial := range 12 {
				fs := randomFaults(d, rng)
				view, err := fault.ApplyDelta(d, nil, fs)
				if err != nil {
					t.Fatal(err)
				}
				plan := view.PlanService(w)
				for n := 3; n <= 5; n++ {
					what := fmt.Sprintf("%s/%s trial %d (%d faults) n=%d", fb.name, weights, trial, fs.Len(), n)
					if plan.Feasible(n) != nil || len(plan.Served) == 0 {
						continue
					}
					sfc := model.NewSFC(n)
					pD, cD, errD := DP{}.PlaceProblem(context.Background(), plan.PPDC.NewWorkloadCache(plan.Served).Problem(sfc))
					pE, cE, errE := exactFloorDP(context.Background(), plan.PPDC.NewWorkloadCache(plan.Served).Problem(sfc))
					if fmt.Sprint(errD) != fmt.Sprint(errE) || !pD.Equal(pE) || math.Float64bits(cD) != math.Float64bits(cE) {
						t.Fatalf("%s: DP %v at %v (%v), exact-floor Algorithm 3 %v at %v (%v)", what, pD, cD, errD, pE, cE, errE)
					}
					compared++
					if closureFloor(plan.PPDC.APSP.CostMatrix(plan.PPDC.Topo.Switches)) > plan.PPDC.APSP.Closure(plan.PPDC.Topo.Switches).Floor() {
						looser++
					}
				}
			}
		}
	}
	t.Logf("%d problems compared, %d with a floor looser than the closure's", compared, looser)
	if compared < 200 || looser < compared/4 {
		t.Fatalf("%d problems compared, %d with a looser floor: the differential no longer exercises the floor swap", compared, looser)
	}
}

// closureFloor returns the least cell of a closure off its diagonal.
func closureFloor(cost [][]float64) float64 {
	floor := math.Inf(1)
	for i, row := range cost {
		for j, x := range row {
			if i != j {
				floor = min(floor, x)
			}
		}
	}
	return floor
}

// randomFaults draws up to four faults on d: cut links, failed switches
// and hosts, and links degraded by a factor in (0, 4) — below 1 the link
// gets cheaper, which can lower the fabric's least weight.
func randomFaults(d *model.PPDC, rng *rand.Rand) fault.FaultSet {
	g := d.Topo.Graph
	link := func() (int, int) {
		u := d.Topo.Switches[rng.Intn(len(d.Topo.Switches))]
		nb := g.Neighbors(u)
		return u, nb[rng.Intn(len(nb))].To
	}
	fs := fault.FaultSet{}
	for range rng.Intn(5) {
		var f fault.Fault
		switch rng.Intn(4) {
		case 0:
			u, v := link()
			f = fault.Fault{Kind: fault.Link, U: u, V: v}
		case 1:
			u, v := link()
			f = fault.Fault{Kind: fault.Degrade, U: u, V: v, Factor: 4 * (1 - rng.Float64())}
		case 2:
			f = fault.Fault{Kind: fault.Switch, U: d.Topo.Switches[rng.Intn(len(d.Topo.Switches))]}
		default:
			f = fault.Fault{Kind: fault.Host, U: d.Topo.Hosts[rng.Intn(len(d.Topo.Hosts))]}
		}
		if !fs.Active(f) {
			fs = fs.Add(f)
		}
	}
	return fs
}
