// Package routing materializes policy-preserving flows onto actual
// network links. The optimization layers work with shortest-path *costs*;
// this package stitches the corresponding *paths* (src → f_1 → … → f_n →
// dst), accumulates per-link traffic loads, and reports utilization — the
// quantity behind the paper's provisioning assumption that "network links
// are generally provisioned around 40% of utilization" and its claim that
// policy-preserving traffic consumes extra bandwidth.
package routing

import (
	"fmt"
	"math"
	"sort"

	"vnfopt/internal/model"
)

// Link is an undirected edge key with U < V.
type Link struct {
	U, V int
}

// mkLink normalizes an endpoint pair.
func mkLink(a, b int) Link {
	if a > b {
		a, b = b, a
	}
	return Link{U: a, V: b}
}

// flowRoute returns the full vertex walk of one flow under placement p:
// the concatenation of shortest paths src → p(1) → … → p(n) → dst
// (duplicate junction vertices removed). A nil/empty placement routes the
// flow directly. Returns nil if any leg is disconnected.
func flowRoute(d *model.PPDC, f model.VMPair, p model.Placement) []int {
	waypoints := make([]int, 0, len(p)+2)
	waypoints = append(waypoints, f.Src)
	waypoints = append(waypoints, p...)
	waypoints = append(waypoints, f.Dst)
	walk := []int{f.Src}
	for i := 0; i+1 < len(waypoints); i++ {
		leg := d.APSP.Path(waypoints[i], waypoints[i+1])
		if leg == nil {
			return nil
		}
		walk = append(walk, leg[1:]...)
	}
	return walk
}

// migrationRoute returns the vertex walk a VNF migration takes from its
// old to its new switch (nil when the VNF stays put or is disconnected).
func migrationRoute(d *model.PPDC, from, to int) []int {
	if from == to {
		return nil
	}
	return d.APSP.Path(from, to)
}

// LinkLoads accumulates per-link traffic for a workload under a placement:
// every link on a flow's route carries that flow's full rate. The walk may
// traverse a link twice (e.g. an n-tour); each traversal counts.
func LinkLoads(d *model.PPDC, w model.Workload, p model.Placement) (map[Link]float64, error) {
	loads := make(map[Link]float64)
	for i, f := range w {
		if f.Rate == 0 {
			continue
		}
		walk := flowRoute(d, f, p)
		if walk == nil {
			return nil, fmt.Errorf("routing: flow %d is disconnected under placement %v", i, p)
		}
		for j := 0; j+1 < len(walk); j++ {
			loads[mkLink(walk[j], walk[j+1])] += f.Rate
		}
	}
	return loads, nil
}

// AddMigrationLoads adds the one-shot migration traffic μ per link on each
// VNF's migration path into loads (in place).
func AddMigrationLoads(d *model.PPDC, loads map[Link]float64, p, m model.Placement, mu float64) {
	for j := range p {
		walk := migrationRoute(d, p[j], m[j])
		for i := 0; i+1 < len(walk); i++ {
			loads[mkLink(walk[i], walk[i+1])] += mu
		}
	}
}

// Report summarizes a link-load map.
type Report struct {
	// Links is the number of links carrying non-zero load.
	Links int
	// Total is the sum of all link loads — exactly the traffic-volume
	// objective C_a when every link has unit weight.
	Total float64
	// Max and Mean describe the load distribution over loaded links.
	Max, Mean float64
	// P99 is the 99th-percentile loaded-link load.
	P99 float64
	// MaxLink is the heaviest link.
	MaxLink Link
}

// Summarize builds a Report from a load map.
func Summarize(loads map[Link]float64) Report {
	r := Report{}
	vals := make([]float64, 0, len(loads))
	for l, v := range loads {
		if v <= 0 {
			continue
		}
		vals = append(vals, v)
		r.Total += v
		if v > r.Max {
			r.Max = v
			r.MaxLink = l
		}
	}
	r.Links = len(vals)
	if r.Links == 0 {
		return r
	}
	r.Mean = r.Total / float64(r.Links)
	sort.Float64s(vals)
	idx := int(math.Ceil(0.99*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	r.P99 = vals[idx]
	return r
}

// LinkLoad is one link's capacity-aware load record: the raw traffic it
// carries, its capacity, the resulting utilization fraction, and the
// remaining headroom (capacity − load, clamped at 0). Headroom — not raw
// load — is what admission decisions consume, so reports surface it
// directly.
type LinkLoad struct {
	Link        Link    `json:"link"`
	Load        float64 `json:"load"`
	Capacity    float64 `json:"capacity"`
	Utilization float64 `json:"utilization"`
	Headroom    float64 `json:"headroom"`
}

// Loads converts a raw load map into per-link capacity-aware records,
// sorted by descending utilization (ties by link endpoints, so output is
// deterministic) given the uniform positive link capacity c. Zero-load
// links are omitted.
func Loads(loads map[Link]float64, c float64) []LinkLoad {
	out := make([]LinkLoad, 0, len(loads))
	for l, v := range loads {
		if v <= 0 {
			continue
		}
		rec := LinkLoad{Link: l, Load: v, Capacity: c, Utilization: v / c, Headroom: c - v}
		if rec.Headroom < 0 {
			rec.Headroom = 0
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Utilization != out[j].Utilization {
			return out[i].Utilization > out[j].Utilization
		}
		if out[i].Link.U != out[j].Link.U {
			return out[i].Link.U < out[j].Link.U
		}
		return out[i].Link.V < out[j].Link.V
	})
	return out
}
