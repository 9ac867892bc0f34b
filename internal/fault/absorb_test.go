package fault

import (
	"math/rand"
	"testing"
)

// Fault.Validate accepts any degrade factor > 0 that keeps the degraded
// reach finite, so a request can price a link at 1e300 × its weight —
// and then 1e300 + 1 == 1e300, a relaxation that does not increase the
// cost. Rows over such a fabric are a product of the Dijkstra trace, not
// of the graph alone, and the row repair may not reason about them: the
// graph layer's guard sends every row of such a transition through the
// full re-run. These tests pin the incremental chain to Rebuild across
// that regime and across its borders.

// TestApplyDeltaAbsorbedWeightHeal heals one of three 1e300 degrades
// beside two link cuts: the transition that once left prev[31][0] at 4
// where the rebuild says 12, while a repaired row kept a predecessor of
// its own. Rows store costs only now, and the chain reaches this
// transition through a matrix the guard has already sent to a rebuild,
// so the test is a regression pin: it passes with the guard forced open
// (strictRelax always true), where TestApplyDeltaAbsorbingLinkCut and
// TestApplyDeltaExtremeFactorChains fail. Its second prev pins the rule
// for a prev whose matrix is not over d's fabric: Rebuild's view, over a
// clone without the cut links, must not panic, and the transition starts
// from d's own matrix instead.
func TestApplyDeltaAbsorbedWeightHeal(t *testing.T) {
	d := mustFatTree(t, 4)
	healed := Fault{Kind: Degrade, U: 12, V: 15, Factor: 1e300}
	fs := NewFaultSet(
		Fault{Kind: Degrade, U: 2, V: 9, Factor: 2},
		Fault{Kind: Degrade, U: 7, V: 22, Factor: 2},
		Fault{Kind: Degrade, U: 10, V: 25, Factor: 1e300},
		healed,
		Fault{Kind: Degrade, U: 15, V: 31, Factor: 1e300},
		Fault{Kind: Link, U: 10, V: 25},
		Fault{Kind: Link, U: 19, V: 35},
	)
	chained, err := ApplyDelta(d, nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	after := fs.Remove(healed)
	for _, c := range []struct {
		name string
		prev *View
	}{{"chained", chained}, {"rebuild", Rebuild(d, fs)}} {
		t.Run(c.name, func(t *testing.T) {
			inc, err := ApplyDelta(d, c.prev, after)
			if err != nil {
				t.Fatal(err)
			}
			viewEqual(t, d, inc, Rebuild(d, after))
		})
	}
}

// TestApplyDeltaAbsorbingLinkCut: the fabric a transition leaves can be
// perfectly ordinary while the rows it starts from are not. With one
// uplink of ToR 6 cut and the other at 1e300, the ToR and its hosts all
// sit at 1e300 from the rest of the fabric; cutting that last uplink
// leaves unit weights only, yet the three would vouch for one another's
// stale distance if the old rows were taken at face value.
func TestApplyDeltaAbsorbingLinkCut(t *testing.T) {
	d := mustFatTree(t, 4)
	fs := NewFaultSet(
		Fault{Kind: Link, U: 5, V: 6},
		Fault{Kind: Degrade, U: 4, V: 6, Factor: 1e300},
	)
	before, err := ApplyDelta(d, nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	viewEqual(t, d, before, Rebuild(d, fs))
	if c := before.PPDC().APSP.Cost(0, 20); c != 1e300 {
		t.Fatalf("fixture: cost(0,20)=%v, want the hops behind the 1e300 link absorbed", c)
	}
	after := fs.Add(Fault{Kind: Link, U: 4, V: 6})
	inc, err := ApplyDelta(d, before, after)
	if err != nil {
		t.Fatal(err)
	}
	viewEqual(t, d, inc, Rebuild(d, after))
	if inc.reachable(0, 20) {
		t.Fatal("host 20 still reachable with both uplinks of its ToR cut")
	}
}

// TestApplyDeltaExtremeFactorChains drives seeded chains of degrades at
// factors from the edge of float64 — absorbed (1e300), absorbing
// (1e-300, 2⁻⁶⁰), and right at the rounding boundary (2⁻⁵², 2⁻⁵³) —
// mixed with ordinary ones, link cuts and heals, and compares the
// incremental view with Rebuild at every step.
func TestApplyDeltaExtremeFactorChains(t *testing.T) {
	d := mustFatTree(t, 4)
	var links []Fault
	for _, f := range allFaults(d) {
		if f.Kind == Link {
			links = append(links, f)
		}
	}
	factors := []float64{0x1p-60, 1e-300, 0.5, 3, 1e300, 0x1p-53, 0x1p-52}
	var (
		seed int64
		step int
		fs   FaultSet
	)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d step %d, active %v", seed, step, fs.Faults())
		}
	})
	for seed = 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs = FaultSet{}
		prev, err := ApplyDelta(d, nil, fs)
		if err != nil {
			t.Fatal(err)
		}
		for step = 0; step < 12; step++ {
			link := links[rng.Intn(len(links))]
			switch r := rng.Intn(6); {
			case r < 3:
				fs = fs.Add(Fault{Kind: Degrade, U: link.U, V: link.V, Factor: factors[rng.Intn(len(factors))]})
			case r == 3:
				fs = fs.Add(link)
			case fs.Len() > 0:
				active := fs.Faults()
				fs = fs.Remove(active[rng.Intn(len(active))])
			}
			inc, err := ApplyDelta(d, prev, fs)
			if err != nil {
				t.Fatal(err)
			}
			viewEqual(t, d, inc, Rebuild(d, fs))
			prev = inc
		}
	}
}
