// Flashcrowd: a burst of same-pair SFC flows hits a fat-tree fabric.
// The capacity-blind baseline routes every flow over the one
// deterministic shortest path, stacking the whole crowd onto a single
// uplink until it saturates. The capacity-aware router admits against a
// 40% utilization target instead: residual-headroom pruning pushes the
// same flows onto disjoint equal-cost paths, so the crowd is carried
// with the hottest link still under the target.
//
// Run with: go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"

	"vnfopt"
)

func main() {
	topo := vnfopt.MustFatTree(8, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	hosts := dc.Hosts()

	// The flash crowd: six flows for each of four cross-pod host pairs,
	// 240 units of offered load total, all wanting the same corner of
	// the fabric at once.
	const (
		pairs    = 4
		perPair  = 6
		rate     = 10.0
		capacity = 240.0
		target   = 0.40
	)
	var w vnfopt.Workload
	for p := 0; p < pairs; p++ {
		for f := 0; f < perPair; f++ {
			w = append(w, vnfopt.VMPair{Src: hosts[p], Dst: hosts[64+p], Rate: rate})
		}
	}
	sfc := vnfopt.NewSFC(2)

	eng, err := vnfopt.NewEngine(vnfopt.EngineConfig{
		PPDC: dc, SFC: sfc, Base: w, Mu: 1,
		Routing: &vnfopt.RoutingConfig{
			LinkCapacity:   capacity,
			MaxUtilization: target,
			Classify:       true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the same flows through the same placement, routed
	// capacity-blind over the metric closure's single shortest path.
	loads, err := vnfopt.LinkLoads(dc, w, eng.Snapshot().Placement)
	if err != nil {
		log.Fatal(err)
	}
	blindMax := 0.0
	for _, l := range loads {
		if u := l / capacity; u > blindMax {
			blindMax = u
		}
	}

	rep := eng.RoutingReport()
	fmt.Printf("flash crowd: %d flows, %.0f offered load, link capacity %.0f\n\n",
		len(w), rate*float64(len(w)), capacity)
	fmt.Printf("%-28s  %12s  %9s  %9s\n", "router", "max link util", "admitted", "rejected")
	fmt.Printf("%-28s  %12.3f  %9d  %9d\n", "capacity-blind shortest path", blindMax, len(w), 0)
	fmt.Printf("%-28s  %12.3f  %9d  %9d\n", "capacity-aware (target 0.40)",
		rep.MaxUtilization, rep.Admitted, rep.Rejected)

	fmt.Printf("\nhottest aware link: %v at %.3f; %d links carry load\n",
		rep.MaxLink, rep.MaxUtilization, len(rep.Links))

	if blindMax <= target {
		log.Fatalf("baseline did not exceed the target (%.3f <= %.2f): crowd too small", blindMax, target)
	}
	if rep.MaxUtilization > target+1e-12 {
		log.Fatalf("aware router exceeded the target: %.3f > %.2f", rep.MaxUtilization, target)
	}
	if rep.Rejected > 0 {
		log.Fatalf("aware router rejected %d flows the fabric could carry", rep.Rejected)
	}
	fmt.Printf("\nthe aware router carried the full crowd at ≤ %.0f%% per link; "+
		"the blind path peaked at %.0f%%\n", target*100, blindMax*100)
}
