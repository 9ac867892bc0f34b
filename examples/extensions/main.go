// Extensions: the paper's future-work section, running. Side by side on
// one scenario: per-switch capacity / colocation, VNF replication versus
// migration, per-flow SFC classes, and the when-to-migrate policies.
// Replication, multi-SFC and the forecasting migrator are extensions the
// facade does not carry: this program is their caller and imports them
// from internal/ directly.
//
// Run with: go run ./examples/extensions
package main

import (
	"fmt"
	"log"
	"math/rand"

	"vnfopt"
	"vnfopt/internal/multisfc"
	"vnfopt/internal/predict"
	"vnfopt/internal/replication"
)

func main() {
	topo := vnfopt.MustFatTree(8, nil)
	rng := rand.New(rand.NewSource(31))
	flows, err := vnfopt.GeneratePairsClustered(topo, 96, 5, vnfopt.DefaultIntraRack, rng)
	if err != nil {
		log.Fatal(err)
	}
	sfc := vnfopt.NewSFC(5)

	// --- 1. "Each switch can install multiple VNFs" --------------------
	fmt.Println("1. colocation / switch capacity")
	strict := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	_, distinct, err := vnfopt.DPPlacement().Place(strict, flows, sfc)
	if err != nil {
		log.Fatal(err)
	}
	for _, capacity := range []int{2, 5} {
		dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{SwitchCapacity: capacity})
		_, c, err := vnfopt.OptimalPlacement(300000).Place(dc, flows, sfc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   capacity %d: C_a = %.0f (%.1f%% below the distinct-switch %.0f)\n",
			capacity, c, 100*(distinct-c)/distinct, distinct)
	}

	// --- 2. Replication vs migration ------------------------------------
	fmt.Println("\n2. replication vs migration under a traffic shift")
	dc := vnfopt.MustNewPPDC(topo, vnfopt.Options{})
	p, _, err := vnfopt.DPPlacement().Place(dc, flows, sfc)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := replication.Place(dc, flows, sfc, 3, replication.Options{})
	if err != nil {
		log.Fatal(err)
	}
	shifted := flows.WithRates(vnfopt.GenerateRates(len(flows), rng))
	const mu = 1e4
	_, migCt, err := vnfopt.MPareto().Migrate(dc, shifted, sfc, p, mu)
	if err != nil {
		log.Fatal(err)
	}
	_, repCost := replication.Reassign(dc, shifted, dep.Chains)
	fmt.Printf("   migrate 1 chain:   C_t = %.0f (pays migration traffic once)\n", migCt)
	fmt.Printf("   reassign 3 chains: C_a = %.0f (zero migration, 3x VNF instances)\n", repCost)

	// --- 3. Per-flow SFC classes ----------------------------------------
	fmt.Println("\n3. per-flow SFC classes (multi-SFC)")
	class := make([]int, len(flows))
	for i := range class {
		class[i] = i % 2
	}
	sfcs := []vnfopt.SFC{vnfopt.NewSFC(5), vnfopt.NewSFC(2)} // app chain vs access chain
	mdep, mcost, err := multisfc.Place(dc, flows, class, sfcs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   5-VNF chain at %v, 2-VNF chain at %v — total C_a = %.0f\n",
		mdep.Chains[0], mdep.Chains[1], mcost)
	fmt.Printf("   (single 5-VNF chain for everyone would cost %.0f)\n", distinct)

	// --- 4. When to migrate ----------------------------------------------
	fmt.Println("\n4. when-to-migrate policies over a burst day")
	sched, err := vnfopt.PaperBurst().Schedule(topo, flows, rng)
	if err != nil {
		log.Fatal(err)
	}
	s, err := vnfopt.NewSimulator(vnfopt.SimConfig{
		PPDC: dc, SFC: sfc, Base: flows, Schedule: sched, Mu: mu, HourVolume: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, mig := range []vnfopt.Migrator{
		vnfopt.MPareto(),
		vnfopt.TriggeredMigration(vnfopt.MPareto(), 3),
		vnfopt.PeriodicMigration(vnfopt.MPareto(), 4),
		&predict.Migrator{Inner: vnfopt.MPareto(), Forecast: predict.NewEWMA(0.6)},
	} {
		tr, err := s.RunVNF(mig)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %-24s day cost %.0f, %d VNF moves\n", tr.Strategy, tr.Total, tr.TotalMoves)
	}
}
