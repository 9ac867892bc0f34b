package workload

import (
	"fmt"
	"math/rand"

	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// BurstModel generates the hour-by-hour traffic-rate schedule used by the
// dynamic-traffic experiments (Fig. 11). It layers three effects the paper
// motivates:
//
//  1. diversity — each flow's amplitude comes from the Facebook-like
//     light/medium/heavy mix (Rate);
//  2. the diurnal envelope — Eq. 9 with the east/west-coast phase split
//     (Diurnal.FlowScale);
//  3. tenant bursts — flows that share a rack burst together: each rack
//     draws a peak hour and its flows' rates rise and fall around it
//     (the paper's Zoom example: "different Zoom meetings could have a
//     dramatically different number of participants... last minutes to
//     hours"). Rack-correlated bursts are what make the traffic-optimal
//     placement *move* during the day; with rates redrawn independently
//     per flow the optimum of Eq. 1 is topology-pinned and no migration
//     algorithm (the paper's included) would ever act.
type BurstModel struct {
	// Diurnal is the Eq. 9 envelope.
	Diurnal Diurnal
	// Width is the burst half-width in hours (default 2).
	Width int
	// Floor is the off-peak fraction of a flow's amplitude (default
	// 0.05): tenants never go fully silent inside the working day.
	Floor float64
	// SpreadPeaks staggers rack peak hours evenly across the working day
	// (rack j of the shuffled rack order peaks at hour 1 + j·N/racks
	// mod N) instead of drawing them independently. Evenly-spaced peaks
	// give each hour one clearly dominant tenant — the regime in which
	// the paper's Fig. 1 narrative (heavy traffic relocating across the
	// fabric) and its up-to-73% migration savings arise.
	SpreadPeaks bool
}

// PaperBurst returns the burst model used by the Fig. 11 experiments.
func PaperBurst() BurstModel {
	return BurstModel{Diurnal: PaperDiurnal(), Width: 2, Floor: 0.05, SpreadPeaks: true}
}

// Validate checks the model parameters.
func (m BurstModel) Validate() error {
	if err := m.Diurnal.Validate(); err != nil {
		return err
	}
	if m.Width < 1 {
		return fmt.Errorf("workload: burst width %d < 1", m.Width)
	}
	if m.Floor < 0 || m.Floor > 1 {
		return fmt.Errorf("workload: burst floor %v outside [0,1]", m.Floor)
	}
	return nil
}

// bump is the triangular burst profile: 1 at the peak, Floor at Width or
// more hours away.
func (m BurstModel) bump(h, peak int) float64 {
	d := h - peak
	if d < 0 {
		d = -d
	}
	if d >= m.Width {
		return m.Floor
	}
	return m.Floor + (1-m.Floor)*(1-float64(d)/float64(m.Width))
}

// Schedule precomputes rates[h][i]: flow i's traffic rate at hour h+1
// (hours run 1..Diurnal.Horizon()). Flows in the same rack share a peak
// hour; flows outside any rack (cross-rack pairs) get their own peak.
func (m BurstModel) Schedule(t *topology.Topology, w model.Workload, rng *rand.Rand) ([][]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	horizon := m.Diurnal.Horizon()
	// Rack of each host, for peak sharing.
	rackOf := map[int]int{}
	for r, hosts := range t.Racks {
		for _, h := range hosts {
			rackOf[h] = r
		}
	}
	rackPeak := make([]int, len(t.Racks))
	for r := range rackPeak {
		rackPeak[r] = 1 + rng.Intn(m.Diurnal.N)
	}
	if m.SpreadPeaks {
		// Stagger peaks evenly over the working day among the racks that
		// actually carry flows (a small tenant subset under
		// PairsClustered), in a shuffled order, so each hour has one
		// clearly dominant tenant.
		present := map[int]bool{}
		var active []int
		for _, f := range w {
			if r, ok := rackOf[f.Src]; ok && !present[r] {
				present[r] = true
				active = append(active, r)
			}
		}
		rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
		for j, r := range active {
			rackPeak[r] = 1 + (j*m.Diurnal.N/len(active))%m.Diurnal.N
		}
	}
	// A tenant lives in one timezone: the east/west coast assignment is
	// per rack (rack index parity), so a rack's flows burst together.
	// Rackless flows fall back to the per-flow parity of Diurnal.
	amp := make([]float64, len(w))
	peak := make([]int, len(w))
	west := make([]bool, len(w))
	for i, f := range w {
		amp[i] = Rate(rng)
		if r, ok := rackOf[f.Src]; ok {
			peak[i] = rackPeak[r]
			west[i] = r%2 == 1
		} else {
			peak[i] = 1 + rng.Intn(m.Diurnal.N)
			west[i] = i%2 == 1
		}
	}
	out := make([][]float64, horizon)
	for h := 1; h <= horizon; h++ {
		row := make([]float64, len(w))
		for i := range w {
			hh := h
			if west[i] {
				hh -= m.Diurnal.ShiftHours
			}
			row[i] = amp[i] * m.Diurnal.scale(hh) * m.bump(hh, peak[i])
		}
		out[h-1] = row
	}
	return out, nil
}
