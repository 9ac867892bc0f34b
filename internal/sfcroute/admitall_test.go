package sfcroute

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// passDemands draws flows whose sources come from the first `sources`
// hosts, so many flows share a source the way a rack's flows do.
func passDemands(rng *rand.Rand, hosts []int, flows, sources int) []Demand {
	out := make([]Demand, flows)
	for i := range out {
		out[i] = Demand{Src: hosts[rng.Intn(sources)], Dst: hosts[rng.Intn(len(hosts))]}
	}
	return out
}

// admitEach is the per-flow reference: the loop AdmitAll replaces.
func admitEach(t testing.TB, r *Router, demands []Demand) []Decision {
	t.Helper()
	out := make([]Decision, 0, len(demands))
	for i, dm := range demands {
		dec, err := r.Admit(dm.Src, dm.Dst, dm.Rate)
		if err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		out = append(out, dec)
	}
	return out
}

func sameDecision(a, b Decision) bool {
	return a.Admitted == b.Admitted && math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		a.Reroutes == b.Reroutes && a.Reason == b.Reason
}

// TestAdmitAllMatchesPerFlowAdmit is the bit-for-bit pin on the batch:
// one router admits each epoch through AdmitAll, its twin through a loop
// of Admit, over five epochs so each epoch's loads re-price the next.
// Every decision, every link load and the search count must be
// identical — with nothing pruned, under capacity tight enough to reject
// and reroute, and with zero-rate flows mixed in.
func TestAdmitAllMatchesPerFlowAdmit(t *testing.T) {
	regimes := []struct {
		name string
		// share scales capacity against the load the offered traffic would
		// put on one link of the busiest chain site if it were all admitted.
		share     float64
		zeroEvery int // every n-th flow has rate 0 (0 = none)
		tight     bool
	}{
		{name: "loose", share: 1e6},
		{name: "tight", share: 1.6, tight: true},
		{name: "zero-rate", share: 1.6, zeroEvery: 3},
	}
	for _, k := range []int{4, 8} {
		d := model.MustNew(topology.MustFatTree(k, nil), model.Options{})
		hosts := d.Hosts()
		for _, alpha := range []float64{0, 0.5} {
			for _, reg := range regimes {
				t.Run(fmt.Sprintf("k%d/alpha%v/%s", k, alpha, reg.name), func(t *testing.T) {
					flows := 32 * k
					const meanRate = 5.5
					cfg := Config{Capacity: reg.share * float64(flows) * meanRate * 2 / float64(k), Alpha: alpha, Classify: true}
					batch, err := NewRouter(d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					each, err := NewRouter(d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(k)))
					demands := passDemands(rng, hosts, flows, len(hosts)/2)
					rejects, reroutes := 0, 0
					var got []Decision // refilled each epoch, as the engine's buffer is
					for epoch := 0; epoch < 5; epoch++ {
						for i := range demands {
							demands[i].Rate = 1 + 9*rng.Float64()
							if reg.zeroEvery > 0 && i%reg.zeroEvery == 0 {
								demands[i].Rate = 0
							}
						}
						for _, r := range []*Router{batch, each} {
							if err := r.BeginEpoch(benchSites(d)); err != nil {
								t.Fatal(err)
							}
						}
						got, err = batch.AdmitAll(got[:0], demands)
						if err != nil {
							t.Fatalf("epoch %d: AdmitAll: %v", epoch, err)
						}
						want := admitEach(t, each, demands)
						if len(got) != len(want) {
							t.Fatalf("epoch %d: %d decisions, want %d", epoch, len(got), len(want))
						}
						for i := range want {
							if !sameDecision(got[i], want[i]) {
								t.Fatalf("epoch %d demand %d %+v:\n AdmitAll %+v\n Admit    %+v", epoch, i, demands[i], got[i], want[i])
							}
							if !want[i].Admitted {
								rejects++
							}
							reroutes += want[i].Reroutes
						}
						if batch.Searches() != each.Searches() {
							t.Fatalf("epoch %d: AdmitAll ran %d searches, the per-flow loop %d", epoch, batch.Searches(), each.Searches())
						}
						for i, w := range each.load {
							if math.Float64bits(batch.load[i]) != math.Float64bits(w) {
								t.Fatalf("epoch %d link %v: load %v, want %v", epoch, each.links[i], batch.load[i], w)
							}
						}
					}
					if reg.tight && (rejects == 0 || reroutes == 0) {
						t.Fatalf("tight regime is not tight: %d rejects, %d reroutes", rejects, reroutes)
					}
					// Unpruned, a pass runs p_1's and p_3's trees and the search for
					// the hop p_2 → p_3, whatever the flows' sources.
					if reg.name == "loose" && (rejects != 0 || reroutes != 0 || batch.Searches() != 3) {
						t.Fatalf("loose regime pruned: %d rejects, %d reroutes, %d searches, want 3",
							rejects, reroutes, batch.Searches())
					}
				})
			}
		}
	}
}

// TestAdmitAllStopsAtInvalidDemand pins the error contract the engine
// reports a flow index from: decisions up to the failing demand, the
// error Admit would have returned, earlier loads still committed.
func TestAdmitAllStopsAtInvalidDemand(t *testing.T) {
	d := linearPPDC(t, 2)
	demands := []Demand{{Src: 0, Dst: 3, Rate: 2}, {Src: 0, Dst: 3, Rate: math.NaN()}, {Src: 0, Dst: 3, Rate: 2}}
	batch, err := NewRouter(d, Config{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	each, _ := NewRouter(d, Config{Capacity: 10})
	for _, r := range []*Router{batch, each} {
		if err := r.BeginEpoch(nil); err != nil {
			t.Fatal(err)
		}
	}
	decs, gotErr := batch.AdmitAll(nil, demands)
	if _, err := each.Admit(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	_, wantErr := each.Admit(0, 3, math.NaN())
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("AdmitAll error %v, want %v", gotErr, wantErr)
	}
	if len(decs) != 1 || !decs[0].Admitted {
		t.Fatalf("decisions before the failing demand: %+v, want the one admitted flow", decs)
	}
	if got, want := batch.PricedLoads(nil), each.PricedLoads(nil); len(got) != 3 || len(want) != 3 {
		t.Fatalf("loads after the failure: %v, want %v", got, want)
	}
	// An endpoint off the fabric fails in turn too, not up front.
	decs, gotErr = batch.AdmitAll(nil, []Demand{{Src: 0, Dst: 3, Rate: 1}, {Src: 0, Dst: 99, Rate: 1}})
	if gotErr == nil || len(decs) != 1 {
		t.Fatalf("out-of-range endpoint: %d decisions, err %v", len(decs), gotErr)
	}
}

// TestAdmitAllSearchCount pins the searches as counts, for AdmitAll and
// Admit alike. Uncongested, F flows from S distinct sources through a
// one-stage chain cost one search: p_1's full tree, which holds every
// source's leg and every destination's. When the first commit pushes
// the minimum headroom under every later flow's rate, each later
// attempt prunes and searches its own legs: n+1 of them, or fewer when
// a leg is cut off — here 232 searches for 142 attempts, where the
// tree and n+1 per pruned attempt would be 283.
func TestAdmitAllSearchCount(t *testing.T) {
	d := model.MustNew(topology.MustFatTree(4, nil), model.Options{})
	hosts := d.Hosts()
	// Pod 0 and one pod-1 host send to pod 3 through a core switch, so no
	// tour crosses a link twice: rate 6 fits capacity 10 once, never twice.
	const flows, sources, stages = 64, 5, 1
	sites := [][]int{{d.Switches()[0]}}
	demands := make([]Demand, flows)
	for i := range demands {
		demands[i] = Demand{Src: hosts[i%sources], Dst: hosts[len(hosts)-1-i%4], Rate: 6}
	}
	pass := func(capacity float64, batch bool) (int, []Decision) {
		r, err := NewRouter(d, Config{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.BeginEpoch(sites); err != nil {
			t.Fatal(err)
		}
		var decs []Decision
		if batch {
			if decs, err = r.AdmitAll(nil, demands); err != nil {
				t.Fatal(err)
			}
		} else {
			decs = admitEach(t, r, demands)
		}
		return r.Searches(), decs
	}
	for _, batch := range []bool{true, false} {
		if got, _ := pass(1e9, batch); got != 1 {
			t.Fatalf("uncongested (AdmitAll %v): %d searches for %d flows from %d sources, want 1", batch, got, flows, sources)
		}
	}

	// Capacity 10: the first commit leaves headroom 4 along its path, so
	// every later flow has a non-empty prune set.
	got, decs := pass(10, true)
	if !decs[0].Admitted || decs[0].Reroutes != 0 {
		t.Fatalf("first flow %+v, want admitted on the shared routes", decs[0])
	}
	attempts := 0
	for _, dec := range decs {
		attempts += dec.Reroutes + 1
	}
	if want := 1 + (attempts-1)*(stages+1); attempts != 142 || got != 232 || got > want {
		t.Fatalf("pruned AdmitAll ran %d searches for %d attempts, want 232 for 142 (at most %d)", got, attempts, want)
	}
	if perFlow, _ := pass(10, false); perFlow != got {
		t.Fatalf("pruned per-flow Admit ran %d searches, AdmitAll %d", perFlow, got)
	}
}

// TestAdmitAllSettlesTwoTrees pins the work of an unpruned k=8 pass
// whose chain sits on adjacent switches, as TOP places it: p_1's and
// p_3's full trees and one search for the hop p_2 → p_3, 3 searches
// settling 162 vertices. Each tree settles the 80 switches (hosts are
// dead ends, written, not queued) and the hop's search stops as p_3
// settles, after 2. The 1 000 flows leave all 128 hosts, so a search per
// source or per flow, or a hop search run past p_3, fails here.
func TestAdmitAllSettlesTwoTrees(t *testing.T) {
	d := model.MustNew(topology.MustFatTree(8, nil), model.Options{})
	isSwitch := make(map[int]bool)
	for _, s := range d.Switches() {
		isSwitch[s] = true
	}
	// Walk three adjacent switches from the first.
	chain := []int{d.Switches()[0]}
	for len(chain) < 3 {
		for _, e := range d.Topo.Graph.Neighbors(chain[len(chain)-1]) {
			if isSwitch[e.To] && !slices.Contains(chain, e.To) {
				chain = append(chain, e.To)
				break
			}
		}
	}
	hosts := d.Hosts()
	rng := rand.New(rand.NewSource(1))
	demands := passDemands(rng, hosts, 1000, len(hosts))
	for i := range demands {
		demands[i].Rate = 1 + 9*rng.Float64()
	}
	r, err := NewRouter(d, Config{Capacity: 1e9, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.BeginEpoch(PlacementSites(chain)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AdmitAll(nil, demands); err != nil {
		t.Fatal(err)
	}
	if r.Searches() != 3 || r.Settled() != 162 {
		t.Fatalf("chain %v: %d searches settled %d vertices, want 3 settling 162", chain, r.Searches(), r.Settled())
	}
}
