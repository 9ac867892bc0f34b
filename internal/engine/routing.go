package engine

import (
	"fmt"
	"maps"
	"time"

	"vnfopt/internal/sfcroute"
)

// RoutingConfig enables the capacity-aware SFC routing pass: when set,
// every epoch re-routes the served workload through the committed chain
// placement, one shortest path per chain stage (internal/sfcroute),
// admitting flows against residual link capacity and reporting which
// flows no feasible route can carry. The placement optimizers stay capacity-blind — this
// pass is the admission-control check on top of their answer, the
// capacity side of the paper's 40%-provisioning discussion.
type RoutingConfig struct {
	// LinkCapacity is the uniform link capacity (required, > 0), in the
	// same units as flow rates.
	LinkCapacity float64 `json:"link_capacity"`
	// Alpha enables congestion-aware pricing: link weights grow with the
	// previous epoch's utilization (w · (1 + Alpha·u/(1−u))), so routing
	// drifts away from hot links in the drift loop. 0 = capacity-blind
	// weights (admission still enforced).
	Alpha float64 `json:"alpha,omitempty"`
	// MaxUtilization is the admission target fraction of capacity
	// (0 = 1.0). Set 0.40 to admit against the paper's provisioning point.
	MaxUtilization float64 `json:"max_utilization,omitempty"`
	// SaturationThreshold marks links "saturated" in reports when their
	// utilization strictly exceeds it: in [0, 1], 0 = the paper's 0.40.
	SaturationThreshold float64 `json:"saturation_threshold,omitempty"`
	// Classify runs the max-flow bound on every rejection to label
	// provably-infeasible flows (one mcf solve per chain leg per
	// rejection).
	Classify bool `json:"classify,omitempty"`
}

// FlowDecision is one flow's admission outcome in an epoch's routing pass.
type FlowDecision struct {
	Flow     int     `json:"flow"`
	Admitted bool    `json:"admitted"`
	Cost     float64 `json:"cost,omitempty"`
	Reroutes int     `json:"reroutes,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// RoutingReport is the full routing state of one epoch: per-flow
// admission decisions and per-link utilization under the committed
// placement.
type RoutingReport struct {
	// Epoch the pass ran in (0 = the initial placement's pass).
	Epoch int `json:"epoch"`
	// Admitted / Rejected count served flows; unserved (fault-excluded)
	// flows are in neither.
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	// AdmittedRate / RejectedRate total the corresponding flow rates.
	AdmittedRate float64 `json:"admitted_rate"`
	RejectedRate float64 `json:"rejected_rate"`
	// RejectReasons histograms rejections by sfcroute reason.
	RejectReasons map[string]int `json:"reject_reasons,omitempty"`
	// MaxUtilization is the hottest link's utilization and MaxLink its
	// identity: Links[0]'s, zero when no link is loaded.
	MaxUtilization float64       `json:"max_utilization"`
	MaxLink        sfcroute.Link `json:"max_link"`
	// Links lists every loaded link hottest-first with capacity headroom;
	// Saturated is the prefix above SaturationThreshold.
	Links     []sfcroute.LinkLoad `json:"links"`
	Saturated []sfcroute.LinkLoad `json:"saturated,omitempty"`
	// Decisions holds the per-flow outcomes, indexed like the base
	// workload (unserved flows omitted).
	Decisions []FlowDecision `json:"decisions"`
}

// RoutingSummary is the snapshot-sized digest of a RoutingReport.
type RoutingSummary struct {
	Admitted           int     `json:"admitted"`
	Rejected           int     `json:"rejected"`
	MaxLinkUtilization float64 `json:"max_link_utilization"`
	SaturatedLinks     int     `json:"saturated_links"`
}

// routePass is the engine's last route pass, in buffers the next pass
// refills. ok reports that rep holds a completed pass; rep has no Links,
// Saturated or MaxLink, which RoutingReport builds on read from the
// router's loads, still that pass's until the next one begins. saturated
// counts the links strictly above the saturation threshold; sites (one
// per VNF, made by begin), demands and decs are the pass's BeginEpoch
// and AdmitAll input and output.
type routePass struct {
	rep       RoutingReport
	ok        bool
	saturated int
	demands   []sfcroute.Demand
	decs      []sfcroute.Decision
	sites     [][]int
}

// routeEpoch runs the capacity-aware routing pass for the current
// placement on the router's serving model, into e.route. Called with
// e.mu held; a nil RoutingConfig makes it a no-op, and a pass that fails
// leaves no report.
func (e *Engine) routeEpoch() error {
	rc := e.cfg.Routing
	if rc == nil {
		return nil
	}
	start := time.Now()
	rp := &e.route
	rp.ok = false
	if rc.Alpha > 0 {
		e.pricedFrom = e.router.PricedLoads(e.pricedFrom[:0])
	}
	for j, s := range e.p {
		rp.sites[j][0] = s
	}
	if err := e.router.BeginEpoch(rp.sites); err != nil {
		return fmt.Errorf("routing: %w", err)
	}
	// One batch in flow-index order: admission order decides who gets
	// residual capacity; the router reads every unpruned route from the
	// epoch's shared searches.
	rep := &rp.rep
	*rep = RoutingReport{Epoch: e.epoch, Decisions: rep.Decisions[:0], RejectReasons: rep.RejectReasons}
	clear(rep.RejectReasons)
	rp.demands = rp.demands[:0]
	for i, f := range e.flows {
		if e.servable != nil && !e.servable[i] {
			continue
		}
		rep.Decisions = append(rep.Decisions, FlowDecision{Flow: i})
		rp.demands = append(rp.demands, sfcroute.Demand{Src: f.Src, Dst: f.Dst, Rate: f.Rate})
	}
	var err error
	if rp.decs, err = e.router.AdmitAll(rp.decs[:0], rp.demands); err != nil {
		return fmt.Errorf("routing: flow %d: %w", rep.Decisions[len(rp.decs)].Flow, err)
	}
	for j, dec := range rp.decs {
		fd := &rep.Decisions[j]
		fd.Admitted, fd.Cost, fd.Reroutes, fd.Reason = dec.Admitted, dec.Cost, dec.Reroutes, dec.Reason
		rate := rp.demands[j].Rate
		if dec.Admitted {
			rep.Admitted++
			rep.AdmittedRate += rate
		} else {
			rep.Rejected++
			rep.RejectedRate += rate
			if rep.RejectReasons == nil {
				rep.RejectReasons = make(map[string]int)
			}
			rep.RejectReasons[dec.Reason]++
		}
	}
	rep.MaxUtilization, rp.saturated = e.router.Hottest(rc.SaturationThreshold)
	rp.ok = true
	e.obs.observeRouting(rep, time.Since(start), e.router.Searches(), e.router.Settled())
	return nil
}

// routingSummary digests the last routing pass for the snapshot. Called
// with e.mu held.
func (e *Engine) routingSummary() *RoutingSummary {
	if !e.route.ok {
		return nil
	}
	rep := &e.route.rep
	return &RoutingSummary{
		Admitted:           rep.Admitted,
		Rejected:           rep.Rejected,
		MaxLinkUtilization: rep.MaxUtilization,
		SaturatedLinks:     e.route.saturated,
	}
}

// RoutingReport returns a copy of the most recent routing pass, or nil
// when capacity routing is disabled (or the last pass failed). Its Links
// are sorted here, from the pass's loads: the pass itself only needs
// the hottest.
func (e *Engine) RoutingReport() *RoutingReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.route.ok {
		return nil
	}
	cp := e.route.rep
	cp.Links = e.router.LinkLoads()
	cp.Saturated = cp.Links[:e.route.saturated]
	if len(cp.Links) > 0 {
		cp.MaxLink = cp.Links[0].Link
	}
	cp.Decisions = append([]FlowDecision(nil), cp.Decisions...)
	cp.RejectReasons = nil
	if rr := e.route.rep.RejectReasons; len(rr) > 0 {
		cp.RejectReasons = maps.Clone(rr)
	}
	return &cp
}
