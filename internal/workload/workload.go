// Package workload generates VM flows and traffic rates with the
// characteristics the paper takes from production data centers:
//
//   - rack locality: 80% of VM pairs live under the same edge switch
//     (Benson et al. [8]);
//   - diverse rates in [0, 10000]: 25% light [0,3000), 70% medium
//     [3000,7000], 5% heavy (7000,10000] (Facebook flow characteristics,
//     Roy et al. [43]);
//   - the diurnal dynamic-traffic model of Eq. 9 (N = 12 hours,
//     τ_min = 0.2) with half the flows phase-shifted 3 hours to model the
//     U.S. east/west-coast split.
//
// All generation is driven by an explicit *rand.Rand so experiments are
// reproducible run-to-run.
package workload

import (
	"fmt"
	"math/rand"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// Paper-default rate-mix constants.
const (
	// RateMax is the top of the paper's rate range.
	RateMax = 10000
	// LightFrac, MediumFrac, HeavyFrac are the paper's flow-class mix.
	LightFrac  = 0.25
	MediumFrac = 0.70
	HeavyFrac  = 0.05
	// LightHi and MediumHi delimit the class ranges
	// [0,LightHi) / [LightHi,MediumHi] / (MediumHi,RateMax].
	LightHi  = 3000
	MediumHi = 7000
	// DefaultIntraRack is the fraction of VM pairs placed under the same
	// edge switch.
	DefaultIntraRack = 0.80
)

// Rate draws one traffic rate from the paper's light/medium/heavy mix.
func Rate(rng *rand.Rand) float64 {
	u := rng.Float64()
	switch {
	case u < LightFrac:
		return rng.Float64() * LightHi
	case u < LightFrac+MediumFrac:
		return LightHi + rng.Float64()*(MediumHi-LightHi)
	default:
		return MediumHi + rng.Float64()*(RateMax-MediumHi)
	}
}

// Rates draws l independent traffic rates.
func Rates(l int, rng *rand.Rand) []float64 {
	out := make([]float64, l)
	for i := range out {
		out[i] = Rate(rng)
	}
	return out
}

// pairs places l communicating VM pairs onto the topology's hosts.
// A fraction intraRack of the pairs get both endpoints under the same
// (uniformly chosen) edge switch; the rest get two independent uniform
// hosts. Rates are drawn from the paper's mix. Topologies without rack
// structure fall back to uniform host selection for all pairs.
func pairs(t *topology.Topology, l int, intraRack float64, rng *rand.Rand) (model.Workload, error) {
	if l < 0 {
		return nil, fmt.Errorf("workload: negative flow count %d", l)
	}
	if intraRack < 0 || intraRack > 1 {
		return nil, fmt.Errorf("workload: intra-rack fraction %v outside [0,1]", intraRack)
	}
	if len(t.Hosts) == 0 {
		return nil, fmt.Errorf("workload: topology %s has no hosts", t.Name)
	}
	w := make(model.Workload, 0, l)
	for i := 0; i < l; i++ {
		var src, dst int
		if intraRack > 0 && rng.Float64() < intraRack && len(t.Racks) > 0 {
			rack := t.Racks[rng.Intn(len(t.Racks))]
			src = rack[rng.Intn(len(rack))]
			dst = rack[rng.Intn(len(rack))]
		} else {
			src = t.Hosts[rng.Intn(len(t.Hosts))]
			dst = t.Hosts[rng.Intn(len(t.Hosts))]
		}
		w = append(w, model.VMPair{Src: src, Dst: dst, Rate: Rate(rng)})
	}
	return w, nil
}

// MustPairs is pairs but panics on error.
func MustPairs(t *topology.Topology, l int, intraRack float64, rng *rand.Rand) model.Workload {
	w, err := pairs(t, l, intraRack, rng)
	if err != nil {
		panic(err)
	}
	return w
}

// PairsClustered is pairs with tenant concentration: the workload's racks
// are drawn from a small random subset of tenantRacks racks instead of the
// whole fabric. Production traffic is tenant-skewed (the paper's Zoom
// example: one Meeting Connector VM serves 200 meetings), and the dynamic
// experiments need it — when every rack carries a sliver of traffic the
// optimum of Eq. 1 sits immovably at the fat tree's core, whereas a few
// dominant racks whose load waxes and wanes (see BurstModel) drag the
// traffic-optimal placement across the fabric exactly as in the paper's
// Fig. 1. Cross-rack pairs draw both endpoints from tenant racks too.
func PairsClustered(t *topology.Topology, l, tenantRacks int, intraRack float64, rng *rand.Rand) (model.Workload, error) {
	if l < 0 {
		return nil, fmt.Errorf("workload: negative flow count %d", l)
	}
	if intraRack < 0 || intraRack > 1 {
		return nil, fmt.Errorf("workload: intra-rack fraction %v outside [0,1]", intraRack)
	}
	if len(t.Racks) == 0 {
		return nil, fmt.Errorf("workload: topology %s has no racks", t.Name)
	}
	if tenantRacks < 1 {
		return nil, fmt.Errorf("workload: need at least one tenant rack, got %d", tenantRacks)
	}
	if tenantRacks > len(t.Racks) {
		tenantRacks = len(t.Racks)
	}
	perm := rng.Perm(len(t.Racks))[:tenantRacks]
	w := make(model.Workload, 0, l)
	for i := 0; i < l; i++ {
		rackA := t.Racks[perm[rng.Intn(len(perm))]]
		var src, dst int
		src = rackA[rng.Intn(len(rackA))]
		if rng.Float64() < intraRack {
			dst = rackA[rng.Intn(len(rackA))]
		} else {
			rackB := t.Racks[perm[rng.Intn(len(perm))]]
			dst = rackB[rng.Intn(len(rackB))]
		}
		w = append(w, model.VMPair{Src: src, Dst: dst, Rate: Rate(rng)})
	}
	return w, nil
}

// MustPairsClustered is PairsClustered but panics on error.
func MustPairsClustered(t *topology.Topology, l, tenantRacks int, intraRack float64, rng *rand.Rand) model.Workload {
	w, err := PairsClustered(t, l, tenantRacks, intraRack, rng)
	if err != nil {
		panic(err)
	}
	return w
}
