package fault

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vnfopt/internal/benchmeta"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// Benchmarks for the fault-time repair path: the cost of one topology
// event (inject or heal) with the incremental APSP update — every row
// repaired where the event moves it — versus the full AllPairs rebuild.
// A matrix builds a row on its first read, so every matrix here is read
// in full (readAll): the deltas start from full matrices and the rebuilds
// build every row, as results/BENCH_apsp.json records them under
// "fault_events".

var benchModels sync.Map // name -> *model.PPDC

// logHost prints the environment block results/BENCH_apsp.json is
// recorded with.
func logHost(b *testing.B) {
	host, _ := json.Marshal(benchmeta.Collect())
	b.Logf("host %s", host)
}

func benchModel(b testing.TB, name string) *model.PPDC {
	if d, ok := benchModels.Load(name); ok {
		return d.(*model.PPDC)
	}
	var topo *topology.Topology
	var err error
	switch name {
	case "fattree_k8":
		topo, err = topology.FatTree(8, nil)
	case "fattree_k16":
		topo, err = topology.FatTree(16, nil)
	case "fattree_k32":
		topo, err = topology.FatTree(32, nil)
	case "jellyfish_5k":
		topo, err = topology.Jellyfish(5000, 6, 0, nil, rand.New(rand.NewSource(5)))
	case "jellyfish_10k":
		topo, err = topology.Jellyfish(10000, 6, 0, nil, rand.New(rand.NewSource(10)))
	default:
		b.Fatalf("unknown bench model %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	d := model.MustNew(topo, model.Options{})
	d.APSP.Diameter() // reads every row
	benchModels.Store(name, d)
	return d
}

// readAll reads, so builds, every row of v's matrix, and returns v.
func readAll(v *View) *View {
	v.PPDC().APSP.Diameter()
	return v
}

// midRackToR returns the top-of-rack switch of the middle rack — a
// representative single element. The deterministic low-vertex-ID heap
// tie-break concentrates shortest-path trees on low-ID core and
// aggregation links, so the first switch and its first link are
// near-worst-case elements (their removal changes almost every row)
// while a mid-fabric ToR and its highest-ID uplink sit near the median
// of the changed-row distribution.
func midRackToR(d *model.PPDC) int {
	rack := d.Topo.Racks[len(d.Topo.Racks)/2]
	return d.Topo.Graph.Neighbors(rack[0])[0].To
}

// eventFaults builds the fault set of one named event on d. ok=false
// means the event does not apply to this topology.
func eventFaults(d *model.PPDC, event string) (FaultSet, bool) {
	midSwitch := func() int {
		if len(d.Topo.Racks) > 0 {
			return midRackToR(d)
		}
		return d.Topo.Switches[len(d.Topo.Switches)/2]
	}
	switchLink := func(s int, last bool) (FaultSet, bool) {
		pick := -1
		for _, e := range d.Topo.Graph.Neighbors(s) {
			if d.Topo.Kind[e.To] == topology.Switch {
				pick = e.To
				if !last {
					break
				}
			}
		}
		if pick < 0 {
			return FaultSet{}, false
		}
		return NewFaultSet(Fault{Kind: Link, U: s, V: pick}), true
	}
	switch event {
	case "link":
		// A representative link: the mid-fabric switch's highest-ID
		// switch link (a ToR uplink on fat trees).
		return switchLink(midSwitch(), true)
	case "link_worst":
		// The most tree-popular link: the first switch's first link.
		return switchLink(d.Topo.Switches[0], false)
	case "switch":
		return NewFaultSet(Fault{Kind: Switch, U: midSwitch()}), true
	case "switch_worst":
		return NewFaultSet(Fault{Kind: Switch, U: d.Topo.Switches[0]}), true
	case "rack":
		if len(d.Topo.Racks) == 0 {
			return FaultSet{}, false
		}
		var fs FaultSet
		rack := d.Topo.Racks[len(d.Topo.Racks)/2]
		for _, h := range rack {
			fs = fs.Add(Fault{Kind: Host, U: h})
		}
		// The rack's top-of-rack switch fails with it.
		return fs.Add(Fault{Kind: Switch, U: midRackToR(d)}), true
	}
	return FaultSet{}, false
}

var benchEvents = []string{"link", "switch", "rack", "link_worst", "switch_worst"}

// BenchmarkFaultEvent measures one inject transition from the pristine
// fabric: the incremental path (ApplyDelta from the pristine view) against
// the full Rebuild.
func BenchmarkFaultEvent(b *testing.B) {
	logHost(b)
	topos := []string{"fattree_k8", "fattree_k16"}
	if !testing.Short() {
		topos = append(topos, "jellyfish_5k")
	}
	for _, name := range topos {
		b.Run(name, func(b *testing.B) {
			d := benchModel(b, name)
			for _, event := range benchEvents {
				fs, ok := eventFaults(d, event)
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

// healEvent builds one named heal transition on d: the degraded set the
// heal starts from and the set it leaves. A second fault (the last
// switch) stays active throughout, keeping the view off the empty-set
// shortcut so the delta path really runs.
func healEvent(d *model.PPDC, event string) (both, after FaultSet) {
	var healed Fault
	switch event {
	case "link":
		link, _ := eventFaults(d, "link")
		healed = link.Faults()[0]
	case "switch_back":
		// The fault storm's heaviest class: the lowest-id core switch comes
		// back. Its restored links win the (cost, vertex) tie-break nearly
		// everywhere, and every row changes in its column.
		healed = Fault{Kind: Switch, U: d.Topo.Switches[0]}
	}
	after = NewFaultSet(Fault{Kind: Switch, U: d.Topo.Switches[len(d.Topo.Switches)-1]})
	return after.Add(healed), after
}

var healEvents = []string{"link", "switch_back"}

// BenchmarkFaultHeal measures the restore direction, from a two-fault
// degraded view: heal one link, and bring a switch back.
func BenchmarkFaultHeal(b *testing.B) {
	logHost(b)
	for _, name := range []string{"fattree_k8", "fattree_k16"} {
		b.Run(name, func(b *testing.B) {
			d := benchModel(b, name)
			for _, event := range healEvents {
				both, after := healEvent(d, event)
				degraded, err := Apply(d, both)
				if err != nil {
					b.Fatal(err)
				}
				readAll(degraded)
				b.Run(event+"/incremental", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := ApplyDelta(d, degraded, after); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(event+"/rebuild", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						readAll(Rebuild(d, after))
					}
				})
			}
		})
	}
}

// TestDeltaBytesBudget holds the three event classes that touch every row
// of the k=16 matrix for a few cells each — a switch dies (its column and
// its hosts'), a host uplink is re-priced (one column), the lowest-id core
// switch comes back (its column) — to bytes that
// follow those cells: under 6 MB an event, where copying every touched row whole is
// the 22 MB matrix.
func TestDeltaBytesBudget(t *testing.T) {
	d := benchModel(t, "fattree_k16")
	pristine, err := Apply(d, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := eventFaults(d, "switch")
	uplink, _ := weightEventFaults(d, "host_uplink")
	both, after := healEvent(d, "switch_back")
	twoFaults, err := Apply(d, both)
	if err != nil {
		t.Fatal(err)
	}
	readAll(twoFaults)
	for _, c := range []struct {
		name string
		from *View
		to   FaultSet
	}{
		{"switch", pristine, sw},
		{"host_uplink", pristine, uplink},
		{"switch_back", twoFaults, after},
	} {
		const runs = 3
		var before, done runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := ApplyDelta(d, c.from, c.to); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&done)
		perEvent := (done.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %.2f MB per event", c.name, float64(perEvent)/1e6)
		if perEvent > 6e6 {
			t.Errorf("%s: %.2f MB allocated per event, budget 6 MB", c.name, float64(perEvent)/1e6)
		}
	}
}

// BenchmarkRebuildSingleLink is the micro-bench for the downed-link set
// representation on the hot inject path (sorted slice vs the former
// per-event map): dominated by the APSP build, but the filter predicate
// runs once per pristine edge endpoint, so the constant shows at k=8.
func BenchmarkRebuildSingleLink(b *testing.B) {
	d := benchModel(b, "fattree_k8")
	fs, _ := eventFaults(d, "link")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readAll(Rebuild(d, fs))
	}
}

// TestFaultEventIncrementalMatchesRebuild is the deterministic assert
// behind the fault-event benchmarks: for every benchmark event on the k=8
// fat tree, the incremental view must equal the full rebuild bit-for-bit
// (matrix, dead mask, component labels) — the cheap CI-grade pin of the
// property the differential fuzz explores at random.
func TestFaultEventIncrementalMatchesRebuild(t *testing.T) {
	topo := topology.MustFatTree(8, nil)
	d := model.MustNew(topo, model.Options{})
	pristine, err := Apply(d, FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	for _, event := range benchEvents {
		fs, ok := eventFaults(d, event)
		if !ok {
			t.Fatalf("event %q does not apply to fat tree", event)
		}
		inc, err := ApplyDelta(d, pristine, fs)
		if err != nil {
			t.Fatalf("%s: %v", event, err)
		}
		viewEqual(t, d, inc, Rebuild(d, fs))
		// And the heal back down to one remaining fault.
		if fs.Len() > 1 {
			healed := fs.Remove(fs.Faults()[0])
			incHeal, err := ApplyDelta(d, inc, healed)
			if err != nil {
				t.Fatalf("%s heal: %v", event, err)
			}
			viewEqual(t, d, incHeal, Rebuild(d, healed))
		}
	}
	// The heal classes of BenchmarkFaultHeal, switch_back among them: a
	// second fault stays active, so neither step takes the shortcut.
	for _, event := range healEvents {
		both, after := healEvent(d, event)
		degraded, err := ApplyDelta(d, pristine, both)
		if err != nil {
			t.Fatalf("%s: %v", event, err)
		}
		viewEqual(t, d, degraded, Rebuild(d, both))
		inc, err := ApplyDelta(d, degraded, after)
		if err != nil {
			t.Fatalf("%s heal: %v", event, err)
		}
		viewEqual(t, d, inc, Rebuild(d, after))
	}
	// The pristine shortcut itself must match the model's own matrix.
	n := d.Topo.Graph.Order()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if math.Float64bits(pristine.PPDC().APSP.Cost(u, v)) != math.Float64bits(d.APSP.Cost(u, v)) {
				t.Fatalf("pristine shortcut diverged at (%d,%d)", u, v)
			}
		}
	}
}
