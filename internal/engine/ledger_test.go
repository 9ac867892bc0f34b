package engine

import (
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"reflect"
	"testing"

	"vnfopt/internal/graph"
	"vnfopt/internal/obs"
)

// workLine is one line of testdata/work_ledger.json: the work one layer
// of one in-process twin does over a fixed run, in units that are a
// function of fabric, seed and commands alone — never of time.
type workLine struct {
	Twin  string           `json:"twin"`
	Layer string           `json:"layer"`
	Work  map[string]int64 `json:"work"`
}

// workMeters measures each ledger line: keyed by twin, then layer.
var workMeters = map[string]map[string]func(t *testing.T) map[string]int64{
	"flash-crowd":       {"route_pass": flashCrowdRoutePassWork},
	"flash-crowd-tight": {"route_pass": tightCrowdRoutePassWork},
	"fault-storm":       {"cost_cache": faultStormCostCacheWork, "row_kernel": faultStormRowKernelWork},
}

// crowdRoutePasses runs flashCrowdEngine at capacityFactor — the pass
// New runs, then one cycle of its ops — handing each op's routing report
// to report (nil: none is read), and counts the passes, their searches
// and the fabric vertices those settled.
func crowdRoutePasses(t *testing.T, capacityFactor float64, report func(*RoutingReport)) (*Engine, map[string]int64) {
	reg := obs.NewRegistry()
	e, ops := flashCrowdEngine(t, NewObserver(reg, obs.NewEventLog(16), "crowd"), capacityFactor)
	for _, u := range ops {
		if _, err := e.Ingest(u); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if report != nil {
			report(e.RoutingReport())
		}
	}
	return e, map[string]int64{
		"passes":   int64(histogramCount(t, reg, `vnfopt_sfcroute_pass_seconds_count{scenario="crowd"}`)),
		"searches": int64(reg.Counter(`vnfopt_sfcroute_searches_total{scenario="crowd"}`).Value()),
		"settled":  int64(reg.Counter(`vnfopt_sfcroute_settled_total{scenario="crowd"}`).Value()),
	}
}

// flashCrowdRoutePassWork counts the route passes of flashCrowdEngine at
// the benchmark's capacity, where every flow is admitted; then the
// allocations of one more pass, warm, on the cycle's last placement and
// rates.
func flashCrowdRoutePassWork(t *testing.T) map[string]int64 {
	e, work := crowdRoutePasses(t, 8, nil)
	work["allocs_per_pass"] = int64(testing.AllocsPerRun(10, func() {
		if err := e.routeEpoch(); err != nil {
			t.Fatal(err)
		}
	}))
	return work
}

// tightCrowdRoutePassWork counts the route passes of flashCrowdEngine at
// half the base total rate per link, where admission binds: besides the
// passes, searches and settled vertices, the ops' admitted and rejected
// flows — the rejections by reason — and the reroutes their admissions
// took. Its allocations are TestRejectingPassAllocatesNothing's: this
// twin runs with an observer, which formats an event per rejection.
func tightCrowdRoutePassWork(t *testing.T) map[string]int64 {
	sum := map[string]int64{}
	_, work := crowdRoutePasses(t, 0.5, func(rep *RoutingReport) {
		sum["admitted"] += int64(rep.Admitted)
		sum["rejected"] += int64(rep.Rejected)
		for reason, n := range rep.RejectReasons {
			sum["rejected_"+reason] += int64(n)
		}
		for _, d := range rep.Decisions {
			sum["reroutes"] += int64(d.Reroutes)
		}
	})
	maps.Copy(work, sum)
	return work
}

// faultStormCostCacheWork runs faultStormEngine's cycle and counts the
// switch-closure rows its events' cost caches copied — the rows their
// repair consults read — and how many of the serving APSP matrix's rows
// are built: after create, the fewest and the most after an event, and
// once the cycle ends pristine. The cost model reads the 320 switches'
// rows and the 128 flow hosts'; a fault that isolates a switch or a
// host, or leaves a host one re-priced link, leaves its row unbuilt until
// it is read again. A matrix built in full, or a delta that repairs every
// row, moves the built counts; a closure copied whole moves closure_rows.
func faultStormCostCacheWork(t *testing.T) map[string]int64 {
	reg := obs.NewRegistry()
	e, events := faultStormEngine(t, NewObserver(reg, nil, "storm"))
	built := func() int64 {
		a, n := e.d.APSP, int64(0)
		for u := range a.Order() {
			if a.Built(u) {
				n++
			}
		}
		return n
	}
	work := map[string]int64{"apsp_rows": int64(e.d.APSP.Order()), "rows_built_create": built()}
	lo, hi := work["apsp_rows"], int64(0)
	for i, ev := range events {
		if _, err := e.ApplyFaults(context.Background(), ev.inject, ev.heal); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		lo, hi = min(lo, built()), max(hi, built())
	}
	work["rows_built_min"], work["rows_built_max"], work["rows_built_end"] = lo, hi, built()
	work["faults_active_end"] = int64(e.faults.Len())
	work["closure_rows"] = reg.Counter(`vnfopt_cache_closure_rows_total{scenario="storm"}`).Value()
	return work
}

// faultStormRowKernelWork runs faultStormEngine's create and cycle and
// counts the APSP rows built on first read, by the kernel that built
// them: create_* over the pristine matrix at create, storm_* over every
// matrix the cycle serves from. A row is built by layers over a fabric
// whose live links all weigh the same — the pristine fat tree, and every
// view that only cuts links or kills switches and hosts — and on the heap
// over any other, a view with a degrade among its faults. On a layered
// fabric a host's row is derived from its edge switch's where the host's
// link is up and the switch's row is built too: a batch of rows builds
// the anchors it lacks, so every host a create reads is derived. graph's
// TestRowKernelChoice pins both rules; kernel and derived read them off
// the matrix. The rows an event's Reweigh repairs or derives are not
// first reads: they are the ones the same Reweigh of the event's parent,
// run again here, returns built.
func faultStormRowKernelWork(t *testing.T) map[string]int64 {
	e, events := faultStormEngine(t, nil)
	kernel := func(a *graph.APSP) string {
		lo, hi := math.Inf(1), 0.0
		a.Fabric().ForEachSlot(func(_, _, _ int, w float64) {
			if w < math.Inf(1) {
				lo, hi = min(lo, w), max(hi, w)
			}
		})
		if lo == hi {
			return "layered"
		}
		return "heap"
	}
	// A vertex with one arc — a host — and that arc's slot and head.
	n := e.d.APSP.Order()
	arcs, slot, head := make([]int, n), make([]int, n), make([]int, n)
	e.d.APSP.Fabric().ForEachSlot(func(s, u, v int, _ float64) {
		arcs[u]++
		slot[u], head[u] = s, v
	})
	derived := func(a *graph.APSP, wt []float64, u int) bool {
		return arcs[u] == 1 && arcs[head[u]] > 1 && wt[slot[u]] < math.Inf(1) && a.Built(head[u])
	}
	work := map[string]int64{}
	for _, phase := range []string{"create", "storm"} {
		for _, k := range []string{"layered", "derived", "heap"} {
			work[phase+"_"+k] = 0
		}
	}
	tallied := map[*graph.APSP][]bool{} // per matrix, the rows already counted
	rows := func(a *graph.APSP) []bool {
		if tallied[a] == nil {
			tallied[a] = make([]bool, a.Order())
		}
		return tallied[a]
	}
	tally := func(phase string) {
		a := e.d.APSP
		k, seen, wt := kernel(a), rows(a), a.Fabric().Weights()
		for u := range a.Order() {
			if !a.Built(u) || seen[u] {
				continue
			}
			seen[u] = true
			if k == "layered" && derived(a, wt, u) {
				work[phase+"_derived"]++
			} else {
				work[phase+"_"+k]++
			}
		}
	}
	tally("create")
	built := func(a *graph.APSP) (n int) {
		for u := range a.Order() {
			if a.Built(u) {
				n++
			}
		}
		return n
	}
	for i, ev := range events {
		prev := e.d.APSP
		before := built(prev)
		if _, err := e.ApplyFaults(context.Background(), ev.inject, ev.heal); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		a := e.d.APSP
		if built(prev) != before {
			t.Fatalf("event %d: the parent matrix built rows after its delta; the replay would repair them", i)
		}
		if _, ok := tallied[a]; !ok {
			replay, _ := prev.Reweigh(a.Fabric().Weights(), 1)
			seen := rows(a)
			for u := range a.Order() {
				if replay.Built(u) && !a.Built(u) {
					t.Fatalf("event %d: the replayed delta repairs row %d, which the event's matrix lacks", i, u)
				}
				seen[u] = replay.Built(u)
			}
		}
		tally("storm")
	}
	return work
}

// TestWorkLedger pins every line of testdata/work_ledger.json exactly,
// and requires a line for every meter. A change of work fails here with
// the measured line, which replaces the ledger's when the change is
// meant; CHANGES.md then names the line and why it moved.
func TestWorkLedger(t *testing.T) {
	raw, err := os.ReadFile("testdata/work_ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger []workLine
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatalf("work_ledger.json: %v", err)
	}
	seen := make(map[[2]string]bool)
	for _, want := range ledger {
		key := [2]string{want.Twin, want.Layer}
		meter := workMeters[want.Twin][want.Layer]
		switch {
		case seen[key]:
			t.Fatalf("ledger line %s/%s repeated", want.Twin, want.Layer)
		case meter == nil:
			t.Fatalf("ledger line %s/%s has no meter", want.Twin, want.Layer)
		}
		seen[key] = true
		got := workLine{Twin: want.Twin, Layer: want.Layer, Work: meter(t)}
		if !reflect.DeepEqual(got, want) {
			line, _ := json.Marshal(got)
			t.Errorf("%s/%s work moved; measured line:\n%s", want.Twin, want.Layer, line)
		}
	}
	for twin, layers := range workMeters {
		for layer := range layers {
			if !seen[[2]string{twin, layer}] {
				t.Errorf("meter %s/%s has no ledger line", twin, layer)
			}
		}
	}
}
