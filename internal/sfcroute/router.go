package sfcroute

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
	"vnfopt/internal/routing"
)

// Config tunes a Router.
type Config struct {
	// Capacity is the uniform link capacity (the paper's homogeneous
	// provisioning assumption). Required positive.
	Capacity float64
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
	// Classify runs the layered max-flow bound on every rejection to
	// distinguish provably infeasible demands (bound < rate) from
	// unsplittable-path failures. Costs one mcf solve per rejection.
	Classify bool
}

// maxReroutes bounds the reroute attempts when a path individually fits
// every link but multi-traversal (an n-tour crossing one link in several
// layers) overflows it.
const maxReroutes = 4

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
	lay         *Layered
	laySlotLink []int32
	layWt       []float64
	pruneWt     []float64

	search  SearchScratch
	dsts    []int // the targets of AdmitAll's shared search
	blocked []bool
	epoch   int

	// minHeadroom is the smallest headroom over all links: set in
	// BeginEpoch and lowered on each commit over the committed walk's
	// links only — loads only grow within an epoch, so it stays exact. A
	// flow whose rate it covers has an empty prune set.
	minHeadroom float64
	// searches counts the layered searches since BeginEpoch.
	searches int
	// cnt[link] is the traversal count of the walk walkLinks last
	// tallied; touched lists its non-zero entries.
	cnt     []int32
	touched []int32
}

// NewRouter builds a router over d's fabric. The fabric snapshot is
// frozen here; fault-degraded serving models need a fresh router.
func NewRouter(d *model.PPDC, cfg Config) (*Router, error) {
	if cfg.Capacity <= 0 || math.IsNaN(cfg.Capacity) || math.IsInf(cfg.Capacity, 0) {
		return nil, fmt.Errorf("sfcroute: invalid uniform capacity %v", cfg.Capacity)
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
	r := &Router{d: d, cfg: cfg, lidx: make(map[routing.Link]int)}
	// Parallel edges (none in the shipped topologies) collapse onto one
	// physical link sharing one capacity.
	for _, rec := range d.Topo.Graph.Edges() {
		l := routing.Link{U: rec.U, V: rec.V}
		if _, dup := r.lidx[l]; dup {
			continue
		}
		r.lidx[l] = len(r.links)
		r.links = append(r.links, l)
	}
	r.load = make([]float64, len(r.links))
	r.blocked = make([]bool, len(r.links))
	r.cnt = make([]int32, len(r.links))
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
	u := r.load[link] / r.cfg.Capacity
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
	r.minHeadroom = math.Inf(1)
	for i := range r.load {
		r.load[i] = 0
		r.minHeadroom = min(r.minHeadroom, r.headroom(i))
	}
	r.searches, r.search.sssp.Settled = 0, 0
	lay, err := buildLayered(r.priced, sites)
	if err != nil {
		return err
	}
	r.lay = lay
	ns := lay.csr.NumSlots()
	r.laySlotLink = slices.Grow(r.laySlotLink[:0], ns)[:ns]
	r.layWt = slices.Grow(r.layWt[:0], ns)[:ns]
	r.pruneWt = slices.Grow(r.pruneWt[:0], ns)[:ns]
	// Each layer copies the base slots in order, a site's crossing after
	// its fabric arcs: the b-th fabric slot of the expansion is base slot
	// b mod NumSlots.
	n, b := lay.n, 0
	lay.csr.ForEachSlot(func(slot, u, v int, w float64) {
		if u%n == v%n { // layer crossing
			r.laySlotLink[slot] = -1
		} else {
			r.laySlotLink[slot] = r.slotLink[b%len(r.slotLink)]
			b++
		}
		r.layWt[slot] = w
	})
	r.epoch++
	return nil
}

// Demand is one flow offered to AdmitAll.
type Demand struct {
	Src, Dst int
	Rate     float64
}

// sharedRoute is a demand's route on the epoch's unpruned prices, read
// out of its source's tree by AdmitAll ahead of the demand's turn (have
// is false for a demand no tree was read for).
type sharedRoute struct {
	res  PathResult
	err  error // nil or ErrUnroutable
	have bool
}

// Searches returns the number of shortest-path searches run since
// BeginEpoch.
func (r *Router) Searches() int { return r.searches }

// Settled returns the number of layered vertices those searches popped
// and relaxed: a search stops at its last target, relaxes nothing in a
// layer whose exits have all settled, and only writes a dead end.
func (r *Router) Settled() int { return r.search.sssp.Settled }

// Admit routes one flow of the given rate against residual capacity and
// commits its load on success. Links whose residual headroom cannot
// absorb the rate are pruned before the search; a surviving path that
// still overflows a link by crossing it in several layers triggers a
// bounded reroute with that link blocked. A zero-rate flow is admitted
// along its priced route without consuming capacity.
func (r *Router) Admit(src, dst int, rate float64) (Decision, error) {
	return r.admit(Demand{Src: src, Dst: dst, Rate: rate}, nil)
}

// AdmitAll admits the demands in index order — the order decides who
// gets residual capacity — with exactly the outcome of calling Admit on
// each in turn, but one unpruned search per distinct source where Admit
// runs one per flow. Prices are frozen for the epoch and the search is
// deterministic, so while no link is pruned for a flow its first search
// rebuilds the same tree as every other flow's from that source. The
// first flow of a source to need that tree builds it and reads out the
// route of every later flow from the source that may still use it —
// the tree is searched only until those flows' destinations settle;
// admission takes the route if the flow's prune set is still empty when
// its turn comes, and prunes and searches as Admit does otherwise. Only
// routes are kept, never trees — the one dist/prev scratch is
// overwritten by the next search — and they die with the call. On error
// the returned decisions cover the demands before the failing one, whose
// load stays committed.
func (r *Router) AdmitAll(demands []Demand) ([]Decision, error) {
	if r.lay == nil {
		return nil, fmt.Errorf("sfcroute: BeginEpoch not called")
	}
	// Counting sort of the demand indices by source: source s owns
	// order[first[s]:first[s+1]], ascending. A demand off the fabric is
	// left out; admit reports it when its turn comes.
	onFabric := func(dm Demand) bool { return r.lay.checkEndpoints(dm.Src, dm.Dst) == nil }
	n := r.lay.n
	first := make([]int32, n+2)
	for _, dm := range demands {
		if onFabric(dm) {
			first[dm.Src+2]++
		}
	}
	for s := 2; s < len(first); s++ {
		first[s] += first[s-1]
	}
	order := make([]int32, first[n+1])
	for i, dm := range demands {
		if onFabric(dm) {
			order[first[dm.Src+1]] = int32(i)
			first[dm.Src+1]++
		}
	}
	shared := make([]sharedRoute, len(demands))
	out := make([]Decision, 0, len(demands))
	for i, dm := range demands {
		if !shared[i].have && r.pruneFree(dm.Rate) && onFabric(dm) {
			// This flow would run the unpruned search itself. Flows skipped
			// here exceed the minimum headroom, which only falls, so they
			// prune when their turn comes: one tree per source is enough.
			group := order[first[dm.Src]:first[dm.Src+1]]
			r.dsts = r.dsts[:0]
			for _, j := range group {
				if to := demands[j]; int(j) >= i && r.pruneFree(to.Rate) {
					r.dsts = append(r.dsts, to.Dst)
				}
			}
			r.searches++
			r.lay.search(r.lay.csr, dm.Src, &r.search, r.dsts...)
			for _, j := range group {
				if to := demands[j]; int(j) >= i && r.pruneFree(to.Rate) {
					res, err := r.lay.pathFrom(to.Src, to.Dst, &r.search)
					shared[j] = sharedRoute{res: res, err: err, have: true}
				}
			}
		}
		dec, err := r.admit(dm, &shared[i])
		if err != nil {
			return out, err
		}
		out = append(out, dec)
	}
	return out, nil
}

// pruneFree reports whether a flow of this rate has an empty prune set
// before anything is blocked for it: it consumes nothing, or every link
// can absorb one traversal.
func (r *Router) pruneFree(rate float64) bool {
	return rate >= 0 && rate <= r.minHeadroom
}

// unpruned returns the route on the epoch's own priced weights: pre's
// when AdmitAll already read it out of the source's tree, a fresh
// search otherwise.
func (r *Router) unpruned(src, dst int, pre *sharedRoute) (PathResult, error) {
	if pre != nil && pre.have {
		return pre.res, pre.err
	}
	r.searches++
	return r.lay.shortestPathOn(r.lay.csr, src, dst, &r.search)
}

// admit is the one admission routine behind Admit and AdmitAll; pre,
// when it holds a route, stands in for the unpruned search.
func (r *Router) admit(dm Demand, pre *sharedRoute) (Decision, error) {
	if r.lay == nil {
		return Decision{}, fmt.Errorf("sfcroute: BeginEpoch not called")
	}
	src, dst, rate := dm.Src, dm.Dst, dm.Rate
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Decision{}, fmt.Errorf("sfcroute: invalid rate %v", rate)
	}
	if rate == 0 {
		res, err := r.unpruned(src, dst, pre)
		if err != nil {
			if errors.Is(err, ErrUnroutable) {
				return Decision{Reason: ReasonNoPath}, nil
			}
			return Decision{}, err
		}
		return Decision{Admitted: true, Cost: res.Cost, Walk: res.Walk, Gateways: res.Gateways}, nil
	}
	clear(r.blocked)
	for attempt := 0; attempt <= maxReroutes; attempt++ {
		var res PathResult
		var err error
		if attempt == 0 && r.pruneFree(rate) {
			// The pruned weights would equal layWt slot for slot.
			res, err = r.unpruned(src, dst, pre)
		} else {
			// Prune links that cannot absorb one traversal of this flow.
			for slot, link := range r.laySlotLink {
				if link >= 0 && (r.blocked[link] || r.headroom(int(link)) < rate) {
					r.pruneWt[slot] = graph.Inf
				} else {
					r.pruneWt[slot] = r.layWt[slot]
				}
			}
			r.searches++
			res, err = r.lay.shortestPathOn(r.lay.csr.WithWeights(r.pruneWt), src, dst, &r.search)
		}
		if err != nil {
			if errors.Is(err, ErrUnroutable) {
				return r.reject(src, dst, rate, attempt), nil
			}
			return Decision{}, err
		}
		// Multi-traversal check: the walk may cross one physical link in
		// several layers; the committed load is rate × traversals. The
		// worst overflow is blocked; equal excess (a tour crossing two
		// links twice each) goes to the lowest link index — the links come
		// in ascending order, so the first maximum is it. Admission must
		// replay identically.
		links := r.walkLinks(res.Walk)
		over, overBy := -1, 0.0
		for _, link := range links {
			excess := r.load[link] + float64(r.cnt[link])*rate - r.cfg.Capacity*r.cfg.MaxUtilization
			if excess > 1e-12 && excess > overBy {
				over, overBy = int(link), excess
			}
		}
		if over < 0 {
			for _, link := range links {
				r.load[link] += float64(r.cnt[link]) * rate
				r.minHeadroom = min(r.minHeadroom, r.headroom(int(link)))
			}
			return Decision{Admitted: true, Cost: res.Cost, Walk: res.Walk, Gateways: res.Gateways, Reroutes: attempt}, nil
		}
		r.blocked[over] = true
	}
	d := r.reject(src, dst, rate, maxReroutes)
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
	bound, err := r.maxFlow(src, dst)
	if err == nil && bound.Flow < rate-1e-9 {
		d.Reason = ReasonInfeasible
	}
	return d
}

// headroom is the admissible residual of one link under the utilization
// target.
func (r *Router) headroom(link int) float64 {
	h := r.cfg.Capacity*r.cfg.MaxUtilization - r.load[link]
	if h < 0 {
		return 0
	}
	return h
}

// walkLinks tallies a projected walk's per-link traversals into r.cnt
// and returns the links it crosses in ascending index order. The tally
// is valid until the next call, which clears it.
func (r *Router) walkLinks(walk []int) []int32 {
	for _, link := range r.touched {
		r.cnt[link] = 0
	}
	r.touched = r.touched[:0]
	for i := 0; i+1 < len(walk); i++ {
		link := r.slotLink[r.priced.Arc(walk[i], walk[i+1])]
		if r.cnt[link] == 0 {
			r.touched = append(r.touched, link)
		}
		r.cnt[link]++
	}
	slices.Sort(r.touched)
	return r.touched
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

// SetLoads replaces the committed loads with a Loads result saved from a
// router over the same fabric, so the next BeginEpoch prices from them:
// a resumed engine re-enters the drift loop where the saved one stood.
func (r *Router) SetLoads(loads map[routing.Link]float64) error {
	clear(r.load)
	for l, v := range loads {
		i, ok := r.lidx[mkLink(l.U, l.V)]
		if !ok {
			return fmt.Errorf("sfcroute: no link (%d,%d) in the fabric", l.U, l.V)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sfcroute: link (%d,%d): invalid load %v", l.U, l.V, v)
		}
		r.load[i] = v
	}
	return nil
}

// LinkLoads returns the capacity-aware load records of the committed
// flows, hottest first.
func (r *Router) LinkLoads() []routing.LinkLoad {
	return routing.Loads(r.Loads(), r.cfg.Capacity)
}

// MaxUtilization returns the hottest link's utilization and identity
// (zero when nothing is routed).
func (r *Router) MaxUtilization() (float64, routing.Link) {
	best, link := 0.0, routing.Link{}
	for i := range r.links {
		if u := r.load[i] / r.cfg.Capacity; u > best {
			best, link = u, r.links[i]
		}
	}
	return best, link
}
