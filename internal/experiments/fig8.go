package experiments

import (
	"fmt"

	"vnfopt/internal/workload"
)

// fig8 reproduces the paper's Fig. 8: the daily VM traffic-rate pattern of
// Eq. 9 (N = 12 working hours, τ_min = 0.2) for the two coasts — east
// coast following τ_h directly and west coast shifted 3 hours later.
func fig8(cfg Config) (*Table, error) {
	m := workload.PaperDiurnal()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig. 8 — daily traffic scale factor τ_h (Eq. 9, N=12, τ_min=0.2, 3 h coast shift)",
		Columns: []string{"hour", "east coast τ_h", "west coast τ_{h-3}"},
	}
	for h := 0; h <= m.Horizon(); h++ {
		t.addRow(
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%.3f", m.FlowScale(0, h)),
			fmt.Sprintf("%.3f", m.FlowScale(1, h)),
		)
	}
	return t, nil
}
