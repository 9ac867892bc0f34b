package fault

import (
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// Benchmarks for the weight-delta repair path: the cost of one link
// re-pricing event (degrade inject or heal) with the incremental
// weight-delta APSP update versus the full rebuild.
// results/BENCH_apsp.json records the numbers under "weight_events".

// weightEventFaults builds the degrade set of one named re-pricing
// event on d. ok=false means the event does not apply to this topology.
func weightEventFaults(d *model.PPDC, event string) (FaultSet, bool) {
	midSwitch := func() int {
		if len(d.Topo.Racks) > 0 {
			return midRackToR(d)
		}
		return d.Topo.Switches[len(d.Topo.Switches)/2]
	}
	degradeLink := func(s int, wantSwitch, last bool) (FaultSet, bool) {
		pick := -1
		for _, e := range d.Topo.Graph.Neighbors(s) {
			isSwitch := d.Topo.Kind[e.To] == topology.Switch
			if isSwitch == wantSwitch {
				pick = e.To
				if !last {
					break
				}
			}
		}
		if pick < 0 {
			return FaultSet{}, false
		}
		return NewFaultSet(Fault{Kind: Degrade, U: s, V: pick, Factor: 4}), true
	}
	switch event {
	case "uplink":
		// A representative fabric link: the mid-fabric switch's highest-ID
		// switch link (a ToR uplink on fat trees) at 4x its weight.
		return degradeLink(midSwitch(), true, true)
	case "host_uplink":
		// A host's single link: only the host's own row re-runs (the
		// delta leaves it one edge), every other row moves in one cell,
		// the host's column.
		return degradeLink(midSwitch(), false, false)
	case "spine_worst":
		// The most tree-popular link: the first switch's first link, on
		// the tree of nearly every row.
		return degradeLink(d.Topo.Switches[0], true, false)
	}
	return FaultSet{}, false
}

var weightEvents = []string{"uplink", "host_uplink", "spine_worst"}

// BenchmarkWeightEvent measures one degrade transition from the
// pristine fabric: the incremental path (ApplyDelta's weight vector
// -> graph.APSP.Reweigh) against the full Rebuild.
// The -short run keeps the fat trees; the full run adds the k=32 fat
// tree and the 10k-switch jellyfish (gigabyte-matrix scale).
func BenchmarkWeightEvent(b *testing.B) {
	logHost(b)
	topos := []string{"fattree_k8", "fattree_k16"}
	if !testing.Short() {
		topos = append(topos, "fattree_k32", "jellyfish_10k")
	}
	for _, name := range topos {
		b.Run(name, func(b *testing.B) {
			d := benchModel(b, name)
			for _, event := range weightEvents {
				fs, ok := weightEventFaults(d, event)
				if !ok {
					continue
				}
				pristine, err := Apply(d, FaultSet{})
				if err != nil {
					b.Fatal(err)
				}
				b.Run(event+"/incremental", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := ApplyDelta(d, pristine, fs); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(event+"/rebuild", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						readAll(Rebuild(d, fs))
					}
				})
			}
		})
	}
}

// BenchmarkWeightHeal measures the re-pricing heal: from a degraded
// view, restore the link's pristine weight next to a second active
// degrade (keeping the view off the empty-set shortcut).
func BenchmarkWeightHeal(b *testing.B) {
	for _, name := range []string{"fattree_k8", "fattree_k16"} {
		b.Run(name, func(b *testing.B) {
			d := benchModel(b, name)
			upSet, ok := weightEventFaults(d, "uplink")
			if !ok {
				b.Fatal("no uplink event")
			}
			up := upSet.Faults()[0]
			otherSet, ok := weightEventFaults(d, "host_uplink")
			if !ok {
				b.Fatal("no host_uplink event")
			}
			both := otherSet.Add(up)
			degraded, err := Apply(d, both)
			if err != nil {
				b.Fatal(err)
			}
			readAll(degraded)
			after := both.Remove(up)
			b.Run("incremental", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ApplyDelta(d, degraded, after); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("rebuild", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					readAll(Rebuild(d, after))
				}
			})
		})
	}
}

// TestWeightEventIncrementalMatchesRebuild is the deterministic assert
// behind the weight-event benchmarks: for every weight event on the k=8
// fat tree, the incremental view must equal the full rebuild bit-for-bit
// through a degrade -> re-price -> heal chain — the cheap CI-grade pin
// of the property FuzzWeightDeltaAPSP explores at random.
func TestWeightEventIncrementalMatchesRebuild(t *testing.T) {
	topo := topology.MustFatTree(8, nil)
	d := model.MustNew(topo, model.Options{})
	pristine, err := Apply(d, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	for _, event := range weightEvents {
		fs, ok := weightEventFaults(d, event)
		if !ok {
			t.Fatalf("event %q does not apply to fat tree", event)
		}
		inc, err := ApplyDelta(d, pristine, fs)
		if err != nil {
			t.Fatalf("%s: %v", event, err)
		}
		viewEqual(t, d, inc, Rebuild(d, fs))

		// Re-price the same link to a different factor (replace, not
		// stack), still bit-identical along the incremental chain.
		f := fs.Faults()[0]
		f.Factor = 0.5
		repriced := fs.Add(f)
		inc2, err := ApplyDelta(d, inc, repriced)
		if err != nil {
			t.Fatalf("%s reprice: %v", event, err)
		}
		viewEqual(t, d, inc2, Rebuild(d, repriced))

		// Heal back to pristine: exact bits of the pristine matrix.
		healed, err := ApplyDelta(d, inc2, FaultSet{})
		if err != nil {
			t.Fatalf("%s heal: %v", event, err)
		}
		apspEqual(t, d, healed, pristine)
	}
}
