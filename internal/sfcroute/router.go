package sfcroute

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"vnfopt/internal/graph"
	"vnfopt/internal/model"
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
	// Classify runs the max-flow bound on every rejection to distinguish
	// provably infeasible demands (bound < rate) from unsplittable-path
	// failures. Costs one mcf solve per chain leg per rejection.
	Classify bool
}

// maxReroutes bounds the reroute attempts when a path individually fits
// every link but multi-traversal (a chain walk crossing one link in
// several stages) overflows it.
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
	// reroute budget overflows some link through multi-stage reuse.
	ReasonFragmented = "fragmented"
)

// Decision is one admission outcome. On admission the route's load has
// been committed to the router's residual state.
type Decision struct {
	Admitted bool    `json:"admitted"`
	Cost     float64 `json:"cost"`
	Reroutes int     `json:"reroutes,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// Link is an undirected fabric link with U < V. Links are ordered by
// (U, V): the link order of a Router's loads and of its records.
type Link struct {
	U, V int
}

// LinkLoad is one link's capacity-aware load record: the traffic it
// carries, its capacity, the resulting utilization fraction, and the
// remaining headroom (capacity − load, clamped at 0).
type LinkLoad struct {
	Link        Link    `json:"link"`
	Load        float64 `json:"load"`
	Capacity    float64 `json:"capacity"`
	Utilization float64 `json:"utilization"`
	Headroom    float64 `json:"headroom"`
}

// PricedLink is one link's committed load, which the next BeginEpoch
// prices from: PricedLoads lists them in link order, and SetLoads takes
// them so.
type PricedLink struct {
	U    int     `json:"u"`
	V    int     `json:"v"`
	Load float64 `json:"load"`
}

// errNoEpoch refuses admission outside an epoch.
var errNoEpoch = errors.New("sfcroute: no epoch: BeginEpoch not called, or the last call failed")

// Router routes chain-constrained flows against link capacities: it
// prices links by utilization (optional), tracks residual capacity as
// flows are admitted, and rejects flows whose chain cannot be routed
// feasibly. All methods are single-goroutine; the engine serializes
// routing inside its step lock.
type Router struct {
	cfg Config

	// links holds the fabric's links in link order and load their
	// committed loads: the router's one load store.
	links []Link
	load  []float64

	// Fabric slot tables: slotLink[s] is the link index of slot s and
	// baseWt its weight in the model the router is on, +Inf on a down
	// link; pricedWt holds the epoch's congestion prices and pruneWt one
	// attempt's pruned prices, which the views priced and pruned read.
	slotLink []int32
	baseWt   []float64
	pricedWt []float64
	pruneWt  []float64
	priced   *graph.CSR
	pruned   *graph.CSR

	// sites[ℓ] is stage ℓ+1's switch. ready is set by a BeginEpoch that
	// succeeds and cleared by one that fails.
	sites []int
	ready bool

	// The epoch's shared stage routes on the priced weights, built by its
	// first unpruned attempt (shared): p_1's tree trees[0], p_n's tail
	// (trees[0] when p_1 = p_n), the hop slots p_1 → … → p_n, and hopsOK,
	// false when a stage cannot reach the next.
	shared bool
	trees  [2]siteTree
	tail   *siteTree
	hops   []int32
	hopsOK bool

	// The scratch of one search; a bounded one stops as stopAt's cell
	// becomes final. walk holds the arc slots of the route last
	// assembled.
	dist   []float64
	prev   []int32
	sssp   graph.SSSPScratch
	stopAt int
	walk   []int32

	blocked    []bool
	anyBlocked bool // some blocked entry is set: admit clears them only then
	// minHeadroom is the smallest headroom over all links: set in
	// BeginEpoch and lowered on each commit over the committed walk's
	// links only — loads only grow within an epoch, so it stays exact. A
	// flow whose rate it covers has an empty prune set.
	minHeadroom float64
	// searches counts the searches since BeginEpoch.
	searches int
	// cnt[link] is the traversal count of the walk tally last counted;
	// touched lists its non-zero entries.
	cnt     []int32
	touched []int32
}

// NewRouter builds a router over d's fabric, d.APSP's CSR, whose weights
// are its base weights: +Inf on a down link, which no route crosses.
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
	r := &Router{cfg: cfg}
	r.index(d.APSP.Fabric())
	return r, nil
}

// index indexes the links of fabric c and sizes the weight views, slot
// tables and search state for it. Links are sorted into link order;
// parallel edges (none in the shipped topologies) collapse onto one
// physical link sharing one capacity.
func (r *Router) index(c *graph.CSR) {
	c.ForEachSlot(func(_, u, v int, _ float64) {
		if u < v {
			r.links = append(r.links, Link{U: u, V: v})
		}
	})
	slices.SortFunc(r.links, Link.compare)
	r.links = slices.Compact(r.links)
	r.load = make([]float64, len(r.links))
	r.blocked = make([]bool, len(r.links))
	r.cnt = make([]int32, len(r.links))
	n, ns := c.Order(), c.NumSlots()
	r.slotLink = make([]int32, ns)
	r.baseWt, r.pricedWt, r.pruneWt = make([]float64, ns), make([]float64, ns), make([]float64, ns)
	c.ForEachSlot(func(slot, u, v int, w float64) {
		i, _ := r.link(u, v)
		r.slotLink[slot], r.baseWt[slot] = int32(i), w
	})
	copy(r.pricedWt, r.baseWt)
	r.priced, r.pruned = c.WithWeights(r.pricedWt), c.WithWeights(r.pruneWt)
	r.dist, r.prev = make([]float64, n), make([]int32, n)
	for i := range r.trees {
		r.trees[i] = siteTree{dist: make([]float64, n), prev: make([]int32, n), from: make([]int32, n), to: make([]int32, n)}
	}
	r.sssp.Visit = r.stop
}

// Rebase moves the router onto d, another model of the fabric it was
// built over — a fault view of it, or the pristine model again — whose
// weights become its base weights, and clears the committed loads: the
// next BeginEpoch prices nothing, as a new router's would.
func (r *Router) Rebase(d *model.PPDC) {
	c := d.APSP.Fabric()
	r.priced, r.pruned = c.WithWeights(r.pricedWt), c.WithWeights(r.pruneWt) // panics on another fabric
	c.ForEachSlot(func(slot, _, _ int, w float64) { r.baseWt[slot] = w })
	copy(r.pricedWt, r.baseWt)
	clear(r.load)
	r.ready = false
}

// link returns the index of the link joining a and b; ok is false when
// the fabric has none.
func (r *Router) link(a, b int) (i int, ok bool) {
	if a > b {
		a, b = b, a
	}
	return slices.BinarySearchFunc(r.links, Link{U: a, V: b}, Link.compare)
}

// compare orders links by (U, V): link order.
func (x Link) compare(t Link) int { return cmp.Or(cmp.Compare(x.U, t.U), cmp.Compare(x.V, t.V)) }

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

// BeginEpoch starts a routing epoch for the given chain sites, one per
// stage (repeated entries of it collapse): link prices are recomputed
// from the loads committed during the *previous* epoch (the drift-loop
// re-pricing; with Alpha 0 the prices are the pristine weights) and the
// residual state is reset. Use PlacementSites(p) for a placement. Sites
// that fail validation change nothing but readiness: Admit and AdmitAll
// refuse until a BeginEpoch succeeds, and the next one prices from the
// loads still committed.
func (r *Router) BeginEpoch(sites [][]int) error {
	if err := stageSites(sites, r.priced.Order()); err != nil {
		r.ready = false
		return err
	}
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
	r.sites = r.sites[:0]
	for _, stage := range sites {
		r.sites = append(r.sites, stage[0])
	}
	r.searches, r.sssp.Settled = 0, 0
	r.shared = false
	r.ready = true
	return nil
}

// Demand is one flow offered to AdmitAll.
type Demand struct {
	Src, Dst int
	Rate     float64
}

// Searches returns the number of shortest-path searches run since
// BeginEpoch: the epoch's trees and hop searches, and n+1 per pruned attempt.
func (r *Router) Searches() int { return r.searches }

// Settled returns the number of fabric vertices those searches popped
// and relaxed: a bounded search stops at its stop without relaxing it,
// and only writes a dead end.
func (r *Router) Settled() int { return r.sssp.Settled }

// Admit routes one flow of the given rate against residual capacity and
// commits its load on success. Links whose residual headroom cannot
// absorb the rate are pruned before the searches; a surviving route that
// still overflows a link by crossing it several times triggers a
// bounded reroute with that link blocked. A zero-rate flow is admitted
// along its priced route without consuming capacity.
func (r *Router) Admit(src, dst int, rate float64) (Decision, error) {
	return r.admit(Demand{Src: src, Dst: dst, Rate: rate})
}

// AdmitAll admits the demands in index order — the order decides who
// gets residual capacity — with the outcome of calling Admit on each in
// turn, which it is, and appends the decisions to out. On error they
// cover the demands before the failing one, whose load stays committed.
func (r *Router) AdmitAll(out []Decision, demands []Demand) ([]Decision, error) {
	if !r.ready {
		return out, errNoEpoch
	}
	for _, dm := range demands {
		dec, err := r.admit(dm)
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

// admit is the one admission routine behind Admit and AdmitAll.
func (r *Router) admit(dm Demand) (Decision, error) {
	if !r.ready {
		return Decision{}, errNoEpoch
	}
	src, dst, rate := dm.Src, dm.Dst, dm.Rate
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Decision{}, fmt.Errorf("sfcroute: invalid rate %v", rate)
	}
	if n := r.priced.Order(); src < 0 || src >= n || dst < 0 || dst >= n {
		return Decision{}, fmt.Errorf("sfcroute: endpoints (%d,%d) out of range [0,%d)", src, dst, n)
	}
	if rate == 0 {
		cost, ok := r.route(src, dst, false)
		if !ok {
			return Decision{Reason: ReasonNoPath}, nil
		}
		return Decision{Admitted: true, Cost: cost}, nil
	}
	if r.anyBlocked {
		clear(r.blocked)
		r.anyBlocked = false
	}
	for attempt := 0; attempt <= maxReroutes; attempt++ {
		// An attempt with nothing to prune routes on the shared prices.
		pruned := attempt > 0 || !r.pruneFree(rate)
		if pruned {
			// Prune links that cannot absorb one traversal of this flow.
			for slot, link := range r.slotLink {
				if r.blocked[link] || r.headroom(int(link)) < rate {
					r.pruneWt[slot] = graph.Inf
				} else {
					r.pruneWt[slot] = r.pricedWt[slot]
				}
			}
		}
		cost, ok := r.route(src, dst, pruned)
		if !ok {
			return r.reject(src, dst, rate, attempt), nil
		}
		// Multi-traversal check: the walk may cross one physical link
		// several times; the committed load is rate × traversals. The
		// worst overflow is blocked, equal excess (a tour crossing two
		// links twice each) going to the lowest link index: admission
		// must replay identically.
		r.tally()
		over, overBy := -1, 0.0
		for _, link := range r.touched {
			excess := r.load[link] + float64(r.cnt[link])*rate - r.cfg.Capacity*r.cfg.MaxUtilization
			if excess > 1e-12 && (excess > overBy || excess == overBy && int(link) < over) {
				over, overBy = int(link), excess
			}
		}
		if over < 0 {
			for _, link := range r.touched {
				r.load[link] += float64(r.cnt[link]) * rate
				r.minHeadroom = min(r.minHeadroom, r.headroom(int(link)))
			}
			return Decision{Admitted: true, Cost: cost, Reroutes: attempt}, nil
		}
		r.blocked[over], r.anyBlocked = true, true
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
	if err == nil && bound < rate-1e-9 {
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

// tally counts the last route's per-link traversals into r.cnt and
// lists the links it crosses in r.touched, in walk order. The tally is
// valid until the next call, which clears it.
func (r *Router) tally() {
	for _, link := range r.touched {
		r.cnt[link] = 0
	}
	r.touched = r.touched[:0]
	for _, slot := range r.walk {
		link := r.slotLink[slot]
		if r.cnt[link] == 0 {
			r.touched = append(r.touched, link)
		}
		r.cnt[link]++
	}
}

// PricedLoads appends the loaded links' committed loads to buf, in link
// order.
func (r *Router) PricedLoads(buf []PricedLink) []PricedLink {
	for i, v := range r.load {
		if v > 0 {
			buf = append(buf, PricedLink{U: r.links[i].U, V: r.links[i].V, Load: v})
		}
	}
	return buf
}

// SetLoads replaces the committed loads with records PricedLoads listed
// on a router over the same fabric, so the next BeginEpoch prices from
// them: a resumed engine re-enters the drift loop where the saved one
// stood. The records must be in link order; a link named twice is
// refused.
func (r *Router) SetLoads(recs []PricedLink) error {
	clear(r.load)
	last := -1
	for _, rec := range recs {
		i, ok := r.link(rec.U, rec.V)
		switch {
		case !ok:
			return fmt.Errorf("sfcroute: no link (%d,%d) in the fabric", rec.U, rec.V)
		case i == last:
			return fmt.Errorf("sfcroute: link (%d,%d) repeated", rec.U, rec.V)
		case i < last:
			return fmt.Errorf("sfcroute: link (%d,%d) out of link order", rec.U, rec.V)
		case rec.Load < 0 || math.IsNaN(rec.Load) || math.IsInf(rec.Load, 0):
			return fmt.Errorf("sfcroute: link (%d,%d): invalid load %v", rec.U, rec.V, rec.Load)
		}
		r.load[i], last = rec.Load, i
	}
	return nil
}

// Hottest returns the greatest committed utilization (LinkLoads' first
// record's, 0 when no link is loaded) and how many links are strictly
// above utilization thr.
func (r *Router) Hottest(thr float64) (hottest float64, above int) {
	for _, v := range r.load {
		u := v / r.cfg.Capacity
		hottest = max(hottest, u)
		if u > thr {
			above++
		}
	}
	return hottest, above
}

// LinkLoads returns the capacity-aware load records of the loaded links,
// hottest first; links of equal utilization keep link order.
func (r *Router) LinkLoads() []LinkLoad {
	loaded := 0
	for _, v := range r.load {
		if v > 0 {
			loaded++
		}
	}
	c := r.cfg.Capacity
	out := make([]LinkLoad, 0, loaded)
	for i, v := range r.load {
		if v > 0 {
			out = append(out, LinkLoad{Link: r.links[i], Load: v, Capacity: c, Utilization: v / c, Headroom: max(c-v, 0)})
		}
	}
	slices.SortStableFunc(out, func(a, b LinkLoad) int { return cmp.Compare(b.Utilization, a.Utilization) })
	return out
}
