package sim

import (
	"fmt"

	"vnfopt/internal/model"
	"vnfopt/internal/sfcroute"
)

// The capacity-blind link view of an hour: every flow's policy-preserving
// route stitched from shortest paths (src → f_1 → … → f_n → dst) and its
// full rate accumulated on each link it crosses — the quantity behind
// the paper's provisioning assumption that "network links are generally
// provisioned around 40% of utilization" and its claim that
// policy-preserving traffic consumes extra bandwidth. Capacity-aware
// routing is internal/sfcroute's.

// flowRoute returns the full vertex walk of one flow under placement p:
// the concatenation of shortest paths src → p(1) → … → p(n) → dst
// (duplicate junction vertices removed). A nil/empty placement routes the
// flow directly. Returns nil if any leg is disconnected.
func flowRoute(d *model.PPDC, f model.VMPair, p model.Placement) []int {
	walk := []int{f.Src}
	for j := 0; j <= len(p); j++ {
		next := f.Dst
		if j < len(p) {
			next = p[j]
		}
		leg := d.APSP.Path(walk[len(walk)-1], next)
		if leg == nil {
			return nil
		}
		walk = append(walk, leg[1:]...)
	}
	return walk
}

// LinkLoads accumulates per-link traffic for a workload under a placement:
// every link on a flow's route carries that flow's full rate. The walk may
// traverse a link twice (e.g. an n-tour); each traversal counts.
func LinkLoads(d *model.PPDC, w model.Workload, p model.Placement) (map[sfcroute.Link]float64, error) {
	loads := make(map[sfcroute.Link]float64)
	for i, f := range w {
		if f.Rate == 0 {
			continue
		}
		walk := flowRoute(d, f, p)
		if walk == nil {
			return nil, fmt.Errorf("sim: flow %d is disconnected under placement %v", i, p)
		}
		addWalk(loads, walk, f.Rate)
	}
	return loads, nil
}

// addMigrationLoads adds the one-shot migration traffic μ per link on
// each VNF's migration path from p to m into loads (in place); a VNF
// that stays put adds nothing.
func addMigrationLoads(d *model.PPDC, loads map[sfcroute.Link]float64, p, m model.Placement, mu float64) {
	for j := range p {
		if p[j] != m[j] {
			addWalk(loads, d.APSP.Path(p[j], m[j]), mu)
		}
	}
}

// addWalk adds x to the load of every link the vertex walk crosses.
func addWalk(loads map[sfcroute.Link]float64, walk []int, x float64) {
	for i := 0; i+1 < len(walk); i++ {
		u, v := walk[i], walk[i+1]
		if u > v {
			u, v = v, u
		}
		loads[sfcroute.Link{U: u, V: v}] += x
	}
}

// LinkReport summarizes an hour's link loads.
type LinkReport struct {
	// Links is the number of links carrying non-zero load.
	Links int
	// Total is the sum of all link loads — exactly the traffic-volume
	// objective C_a when every link has unit weight.
	Total float64
	// Max and Mean describe the load distribution over loaded links.
	Max, Mean float64
}

// summarize builds a LinkReport from a load map.
func summarize(loads map[sfcroute.Link]float64) LinkReport {
	var r LinkReport
	for _, v := range loads {
		if v <= 0 {
			continue
		}
		r.Links++
		r.Total += v
		r.Max = max(r.Max, v)
	}
	if r.Links > 0 {
		r.Mean = r.Total / float64(r.Links)
	}
	return r
}
