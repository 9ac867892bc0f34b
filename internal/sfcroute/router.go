package sfcroute

import (
	"errors"
	"fmt"
	"math"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/routing"
)

// Config tunes a Router.
type Config struct {
	// Capacity is the uniform link capacity (the paper's homogeneous
	// provisioning assumption). Required positive unless CapOf is set.
	Capacity float64
	// CapOf overrides Capacity per link when non-nil.
	CapOf routing.CapacityFunc
	// Alpha is the congestion-pricing strength: at utilization u a link
	// of weight w is priced w·(1 + Alpha·u/(1−u)) (u capped just below 1
	// so prices stay finite). 0 keeps the capacity-blind distance
	// weights — admission still enforces capacity, but path choice
	// ignores load.
	Alpha float64
	// MaxUtilization is the admission target: a flow is only committed
	// while every link it crosses stays at or below this fraction of
	// capacity (default 1.0). Set it to the provisioning point (e.g.
	// 0.40) to admit against headroom instead of raw capacity.
	MaxUtilization float64
	// MaxReroutes bounds the reroute attempts when a path individually
	// fits every link but multi-traversal (an n-tour crossing one link
	// in several layers) overflows it (default 4).
	MaxReroutes int
	// Classify runs the layered max-flow bound on every rejection to
	// distinguish provably infeasible demands (bound < rate) from
	// unsplittable-path failures. Costs one mcf solve per rejection.
	Classify bool
}

// Admission reasons.
const (
	// ReasonInfeasible: the max-flow relaxation bound is below the
	// flow's rate, so no routing — splittable or not — can carry it.
	ReasonInfeasible = "infeasible"
	// ReasonNoPath: no single chain-constrained path survives the
	// residual-capacity pruning (the demand may still be splittable).
	ReasonNoPath = "no_path"
	// ReasonFragmented: paths exist but every candidate within the
	// reroute budget overflows some link through multi-layer reuse.
	ReasonFragmented = "fragmented"
)

// Decision is one admission outcome. On admission the route's load has
// been committed to the router's residual state.
type Decision struct {
	Admitted bool    `json:"admitted"`
	Cost     float64 `json:"cost"`
	Walk     []int   `json:"walk,omitempty"`
	Gateways []int   `json:"gateways,omitempty"`
	Reroutes int     `json:"reroutes,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// Router routes chain-constrained flows against link capacities: it
// prices links by utilization (optional), tracks residual capacity as
// flows are admitted, and rejects flows whose chain cannot be routed
// feasibly. All methods are single-goroutine; the engine serializes
// routing inside its step lock.
type Router struct {
	d   *model.PPDC
	cfg Config

	links []routing.Link
	lcap  []float64 // capacity per link
	load  []float64 // committed load per link
	lidx  map[routing.Link]int

	// Base-snapshot slot tables: slotLink[s] is the link index of base
	// slot s; baseWt its pristine weight; pricedWt the congestion-priced
	// buffer the layered build reads.
	slotLink []int32
	baseWt   []float64
	pricedWt []float64
	priced   *graph.CSR

	// Layered state for the current sites: laySlotLink maps layered
	// slots to link indices (-1 for crossings), layWt holds the priced
	// layered weights, pruneWt the per-admission pruning buffer.
	sites       [][]int
	lay         *Layered
	laySlotLink []int32
	layWt       []float64
	pruneWt     []float64

	dist    []float64
	prev    []int32
	scratch graph.SSSPScratch
	blocked []bool
	epoch   int
}

// NewRouter builds a router over d's fabric. The fabric snapshot is
// frozen here; fault-degraded serving models need a fresh router.
func NewRouter(d *model.PPDC, cfg Config) (*Router, error) {
	if cfg.CapOf == nil {
		if cfg.Capacity <= 0 || math.IsNaN(cfg.Capacity) || math.IsInf(cfg.Capacity, 0) {
			return nil, fmt.Errorf("sfcroute: invalid uniform capacity %v", cfg.Capacity)
		}
		cfg.CapOf = routing.UniformCapacity(cfg.Capacity)
	}
	if cfg.Alpha < 0 || math.IsNaN(cfg.Alpha) {
		return nil, fmt.Errorf("sfcroute: invalid congestion alpha %v", cfg.Alpha)
	}
	if cfg.MaxUtilization == 0 {
		cfg.MaxUtilization = 1
	}
	if cfg.MaxUtilization < 0 || cfg.MaxUtilization > 1 {
		return nil, fmt.Errorf("sfcroute: max utilization %v outside (0,1]", cfg.MaxUtilization)
	}
	if cfg.MaxReroutes == 0 {
		cfg.MaxReroutes = 4
	}
	r := &Router{d: d, cfg: cfg, lidx: make(map[routing.Link]int)}
	// Parallel edges (none in the shipped topologies) collapse onto one
	// physical link sharing one capacity.
	for _, rec := range d.Topo.Graph.Edges() {
		l := routing.Link{U: rec.U, V: rec.V}
		if _, dup := r.lidx[l]; dup {
			continue
		}
		c := cfg.CapOf(l)
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("sfcroute: link (%d,%d) has invalid capacity %v", l.U, l.V, c)
		}
		r.lidx[l] = len(r.links)
		r.links = append(r.links, l)
		r.lcap = append(r.lcap, c)
	}
	r.load = make([]float64, len(r.links))
	r.blocked = make([]bool, len(r.links))
	base := d.Topo.Graph.Freeze() // pristine fabric weights
	ns := base.NumSlots()
	r.slotLink = make([]int32, ns)
	r.baseWt = make([]float64, ns)
	r.pricedWt = make([]float64, ns)
	base.ForEachSlot(func(slot, u, v int, w float64) {
		r.slotLink[slot] = int32(r.lidx[mkLink(u, v)])
		r.baseWt[slot] = w
	})
	copy(r.pricedWt, r.baseWt)
	r.priced = base.WithWeights(r.pricedWt)
	return r, nil
}

func mkLink(a, b int) routing.Link {
	if a > b {
		a, b = b, a
	}
	return routing.Link{U: a, V: b}
}

// Model returns the PPDC the router was frozen from — the engine
// compares it against its active serving model to detect fault
// transitions that require a rebuilt router.
func (r *Router) Model() *model.PPDC { return r.d }

// priceCap keeps congestion prices finite on fully loaded links.
const priceCap = 0.98

// price returns the congestion-priced weight of one link.
func (r *Router) price(w float64, link int) float64 {
	u := r.load[link] / r.lcap[link]
	if u <= 0 {
		return w
	}
	if u > priceCap {
		u = priceCap
	}
	return w * (1 + r.cfg.Alpha*u/(1-u))
}

// BeginEpoch starts a routing epoch for the given chain sites: link
// prices are recomputed from the loads committed during the *previous*
// epoch (the drift-loop re-pricing; with Alpha 0 the prices are the
// pristine weights), the residual state is reset, and the layered
// expansion is rebuilt for the sites. Use PlacementSites(p) for the
// fixed-placement case.
func (r *Router) BeginEpoch(sites [][]int) error {
	if r.cfg.Alpha > 0 {
		for slot, link := range r.slotLink {
			r.pricedWt[slot] = r.price(r.baseWt[slot], int(link))
		}
	}
	for i := range r.load {
		r.load[i] = 0
	}
	lay, err := BuildLayered(r.priced, sites)
	if err != nil {
		return err
	}
	r.lay = lay
	// Keep an owned copy: MaxFlow classification reads the sites for the
	// rest of the epoch, after the caller may have reused its slices.
	r.sites = make([][]int, len(sites))
	for i, stage := range sites {
		r.sites[i] = append([]int(nil), stage...)
	}
	ns := lay.CSR().NumSlots()
	r.laySlotLink = resize(r.laySlotLink, ns)
	r.layWt = resizeF(r.layWt, ns)
	r.pruneWt = resizeF(r.pruneWt, ns)
	n := lay.BaseOrder()
	lay.CSR().ForEachSlot(func(slot, u, v int, w float64) {
		bu, bv := u%n, v%n
		if bu == bv { // layer crossing
			r.laySlotLink[slot] = -1
		} else {
			r.laySlotLink[slot] = int32(r.lidx[mkLink(bu, bv)])
		}
		r.layWt[slot] = w
	})
	lv := lay.Order()
	r.dist = resizeF(r.dist, lv)
	r.prev = resize(r.prev, lv)
	r.epoch++
	return nil
}

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Route computes the chain-constrained shortest path under the current
// prices, ignoring capacity entirely (no pruning, no commit). It is the
// capacity-blind reference the differential tests compare against the
// metric closure.
func (r *Router) Route(src, dst int) (PathResult, error) {
	if r.lay == nil {
		return PathResult{}, fmt.Errorf("sfcroute: BeginEpoch not called")
	}
	return r.lay.ShortestPathOn(r.lay.CSR(), src, dst, r.dist, r.prev, &r.scratch)
}

// Admit routes one flow of the given rate against residual capacity and
// commits its load on success. Links whose residual headroom cannot
// absorb the rate are pruned before the search; a surviving path that
// still overflows a link by crossing it in several layers triggers a
// bounded reroute with that link blocked. A zero-rate flow is admitted
// along its priced route without consuming capacity.
func (r *Router) Admit(src, dst int, rate float64) (Decision, error) {
	if r.lay == nil {
		return Decision{}, fmt.Errorf("sfcroute: BeginEpoch not called")
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Decision{}, fmt.Errorf("sfcroute: invalid rate %v", rate)
	}
	if rate == 0 {
		res, err := r.lay.ShortestPathOn(r.lay.CSR(), src, dst, r.dist, r.prev, &r.scratch)
		if err != nil {
			if errors.Is(err, ErrUnroutable) {
				return Decision{Reason: ReasonNoPath}, nil
			}
			return Decision{}, err
		}
		return Decision{Admitted: true, Cost: res.Cost, Walk: res.Walk, Gateways: res.Gateways}, nil
	}
	for i := range r.blocked {
		r.blocked[i] = false
	}
	for attempt := 0; attempt <= r.cfg.MaxReroutes; attempt++ {
		// Prune links that cannot absorb one traversal of this flow.
		for slot, link := range r.laySlotLink {
			if link >= 0 && (r.blocked[link] || r.headroom(int(link)) < rate) {
				r.pruneWt[slot] = graph.Inf
			} else {
				r.pruneWt[slot] = r.layWt[slot]
			}
		}
		res, err := r.lay.ShortestPathOn(r.lay.CSR().WithWeights(r.pruneWt), src, dst, r.dist, r.prev, &r.scratch)
		if err != nil {
			if errors.Is(err, ErrUnroutable) {
				return r.reject(src, dst, rate, attempt), nil
			}
			return Decision{}, err
		}
		// Multi-traversal check: the walk may cross one physical link in
		// several layers; the committed load is rate × traversals. The
		// worst overflow is blocked; equal excess (a tour crossing two
		// links twice each) goes to the lowest link index, never to map
		// order — admission must replay identically.
		over := -1
		overBy := 0.0
		counts := r.walkCounts(res.Walk)
		for link, c := range counts {
			if excess := r.load[link] + float64(c)*rate - r.lcap[link]*r.cfg.MaxUtilization; excess > 1e-12 {
				if excess > overBy || (excess == overBy && link < over) {
					over, overBy = link, excess
				}
			}
		}
		if over < 0 {
			for link, c := range counts {
				r.load[link] += float64(c) * rate
			}
			return Decision{Admitted: true, Cost: res.Cost, Walk: res.Walk, Gateways: res.Gateways, Reroutes: attempt}, nil
		}
		r.blocked[over] = true
	}
	d := r.reject(src, dst, rate, r.cfg.MaxReroutes)
	if d.Reason == ReasonNoPath {
		d.Reason = ReasonFragmented
	}
	return d, nil
}

// reject classifies a failed admission, consulting the max-flow bound
// when configured.
func (r *Router) reject(src, dst int, rate float64, attempts int) Decision {
	d := Decision{Reason: ReasonNoPath, Reroutes: attempts}
	if !r.cfg.Classify {
		return d
	}
	bound, err := r.MaxFlow(src, dst)
	if err == nil && bound.Flow < rate-1e-9 {
		d.Reason = ReasonInfeasible
	}
	return d
}

// headroom is the admissible residual of one link under the utilization
// target.
func (r *Router) headroom(link int) float64 {
	h := r.lcap[link]*r.cfg.MaxUtilization - r.load[link]
	if h < 0 {
		return 0
	}
	return h
}

// walkCounts tallies per-link traversals of a projected walk.
func (r *Router) walkCounts(walk []int) map[int]int {
	counts := make(map[int]int, len(walk))
	for i := 0; i+1 < len(walk); i++ {
		counts[r.lidx[mkLink(walk[i], walk[i+1])]]++
	}
	return counts
}

// Loads returns a copy of the committed per-link loads (zero-load links
// omitted), in the map form internal/routing's reports consume.
func (r *Router) Loads() map[routing.Link]float64 {
	out := make(map[routing.Link]float64)
	for i, l := range r.links {
		if r.load[i] > 0 {
			out[l] = r.load[i]
		}
	}
	return out
}

// LinkLoads returns the capacity-aware load records of the committed
// flows, hottest first (routing.Loads over the router's capacities).
func (r *Router) LinkLoads() []routing.LinkLoad {
	recs, err := routing.Loads(r.Loads(), func(l routing.Link) float64 { return r.lcap[r.lidx[l]] })
	if err != nil {
		// Capacities were validated at construction; this is unreachable.
		panic(err)
	}
	return recs
}

// Saturated lists links above the utilization threshold, hottest first.
func (r *Router) Saturated(threshold float64) []routing.LinkLoad {
	recs := r.LinkLoads()
	cut := len(recs)
	for i, rec := range recs {
		if rec.Utilization <= threshold {
			cut = i
			break
		}
	}
	return recs[:cut]
}

// MaxUtilization returns the hottest link's utilization and identity
// (zero when nothing is routed).
func (r *Router) MaxUtilization() (float64, routing.Link) {
	best, link := 0.0, routing.Link{}
	for i := range r.links {
		if u := r.load[i] / r.lcap[i]; u > best {
			best, link = u, r.links[i]
		}
	}
	return best, link
}
