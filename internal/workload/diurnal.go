package workload

import (
	"fmt"

	"vnfopt/internal/model"
)

// Diurnal is the paper's cycle-stationary daily traffic model (Eq. 9):
// over an N-hour working day (paper: N = 12, 6 AM to 6 PM), the traffic
// scale factor rises linearly from hour 1 to a peak at noon (hour N/2) and
// falls back until hour N:
//
//	τ_0 = 0
//	τ_h = 2·(h/N)·(1 − τ_min)        h = 1 .. N/2
//	τ_h = 2·((N−h)/N)·(1 − τ_min)    h = N/2+1 .. N
//
// with τ_min = 0.2 (from Eramo et al. [20]). To model the U.S. time-zone
// effect, half of the flows (east coast) are ShiftHours = 3 hours *earlier*
// than the other half (west coast): east-coast flows follow τ_h while
// west-coast flows follow τ_{h−ShiftHours}. Hours outside [0, N] scale to 0.
type Diurnal struct {
	// N is the working-day length in hours (paper: 12).
	N int
	// TauMin is the τ_min parameter (paper: 0.2).
	TauMin float64
	// ShiftHours is the east/west-coast phase offset (paper: 3).
	ShiftHours int
}

// PaperDiurnal returns the model with the paper's parameters.
func PaperDiurnal() Diurnal { return Diurnal{N: 12, TauMin: 0.2, ShiftHours: 3} }

// Validate checks the model parameters.
func (m Diurnal) Validate() error {
	if m.N < 2 || m.N%2 != 0 {
		return fmt.Errorf("workload: diurnal N must be even and >= 2, got %d", m.N)
	}
	if m.TauMin < 0 || m.TauMin > 1 {
		return fmt.Errorf("workload: τ_min %v outside [0,1]", m.TauMin)
	}
	if m.ShiftHours < 0 {
		return fmt.Errorf("workload: negative shift %d", m.ShiftHours)
	}
	return nil
}

// scale returns τ_h per Eq. 9. Hours outside [0, N] return 0 (no activity
// outside the working day).
func (m Diurnal) scale(h int) float64 {
	switch {
	case h <= 0 || h > m.N:
		return 0
	case h <= m.N/2:
		return 2 * float64(h) / float64(m.N) * (1 - m.TauMin)
	default:
		return 2 * float64(m.N-h) / float64(m.N) * (1 - m.TauMin)
	}
}

// Horizon returns the number of hours with possibly non-zero traffic for
// either coast: N + ShiftHours.
func (m Diurnal) Horizon() int { return m.N + m.ShiftHours }

// FlowScale returns the scale factor for flow index i at hour h: flows with
// even index are east-coast (τ_h), odd index west-coast (τ_{h−shift}), so
// "half of the VM flows are three hours earlier than the other half".
func (m Diurnal) FlowScale(i, h int) float64 {
	if i%2 == 1 {
		return m.scale(h - m.ShiftHours)
	}
	return m.scale(h)
}

// Apply returns the workload at hour h: each flow's base rate multiplied by
// its coast's scale factor. base is unmodified.
func (m Diurnal) Apply(base model.Workload, h int) model.Workload {
	out := make(model.Workload, len(base))
	for i, f := range base {
		f.Rate *= m.FlowScale(i, h)
		out[i] = f
	}
	return out
}
