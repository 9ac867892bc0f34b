// Engine: run the online placement engine in-process against a full day
// of dynamic cloud traffic. Instead of re-solving TOM every hour like the
// batch simulator, the engine ingests only the flows whose rates changed,
// keeps C_a current, and consults mPareto only when the drift
// trigger fires — printing each epoch's decision and the daily savings
// versus never migrating.
//
// Run with: go run ./examples/engine
package main

import (
	"fmt"
	"log"
	"math/rand"

	"vnfopt"
)

func main() {
	topo := vnfopt.MustFatTree(8, nil)
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	rng := rand.New(rand.NewSource(11))

	// 200 VM pairs concentrated in five tenant racks whose load bursts at
	// staggered hours of the day (Eq. 9 envelope + rack bursts).
	base, err := vnfopt.GeneratePairsClustered(topo, 200, 5, vnfopt.DefaultIntraRack, rng)
	if err != nil {
		log.Fatal(err)
	}
	burst := vnfopt.PaperBurst()
	sched, err := burst.Schedule(topo, base, rng)
	if err != nil {
		log.Fatal(err)
	}
	sfc := vnfopt.NewSFC(5)

	// The engine owns the live workload from hour 1 on; a 10% hysteresis
	// band with a 2-epoch cooldown keeps it from chasing noise.
	eng, err := vnfopt.NewEngine(vnfopt.EngineConfig{
		PPDC: dc,
		SFC:  sfc,
		Base: base.WithRates(sched[0]),
		Mu:   1e4,
		Policy: vnfopt.EnginePolicy{
			Hysteresis: 1.1,
			Cooldown:   2,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	p0 := eng.Snapshot().Placement
	fmt.Printf("initial traffic-optimal placement at hour 1: %v\n\n", p0)
	fmt.Printf("%4s  %8s  %12s  %12s  %6s  %s\n",
		"hour", "changed", "engine C_t", "frozen C_a", "moves", "decision")

	prev := sched[0]
	var totalE, totalF float64
	for h := 1; h <= len(sched); h++ {
		// Stream only the flows whose rate actually changed this hour.
		var ups []vnfopt.RateUpdate
		for i, r := range sched[h-1] {
			if r != prev[i] || h == 1 {
				ups = append(ups, vnfopt.RateUpdate{Flow: i, Rate: r})
			}
		}
		prev = sched[h-1]
		if _, err := eng.Ingest(ups); err != nil {
			log.Fatalf("hour %d: %v", h, err)
		}
		res, err := eng.Step()
		if err != nil {
			log.Fatalf("hour %d: %v", h, err)
		}

		decision := "hold (within band)"
		switch {
		case res.Migrated:
			decision = "migrate"
		case res.Consulted:
			decision = "consulted, stayed"
		}
		frozen := dc.CommCost(base.WithRates(sched[h-1]), p0)
		fmt.Printf("%4d  %8d  %12.0f  %12.0f  %6d  %s\n",
			h, len(ups), res.TotalCost, frozen, res.Moves, decision)
		totalE += res.TotalCost
		totalF += frozen
	}

	met := eng.Metrics()
	fmt.Printf("\ndaily totals: engine %.0f vs frozen %.0f — %.1f%% reduction\n",
		totalE, totalF, 100*(totalF-totalE)/totalF)
	fmt.Printf("control loop: %d/%d epochs consulted the migrator, %d migrations (%d VNF moves)\n",
		met.Consults, met.Epochs, met.Migrations, met.Moves)
}
