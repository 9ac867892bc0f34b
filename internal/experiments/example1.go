package experiments

import (
	"fmt"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
)

// example1 reproduces the paper's worked Example 1 (Fig. 3) exactly: a
// k=2 fat-tree PPDC, two VM flows with λ swapping from ⟨100, 1⟩ to
// ⟨1, 100⟩, μ=1, and a 2-VNF SFC. The paper's numbers: initial optimal
// cost 410, post-swap cost 1004, migration cost 6, post-migration
// communication cost 410 — a 58.6% total-cost reduction.
func example1(cfg Config) (*Table, error) {
	d := model.MustNew(topology.MustFatTree(2, nil), model.Options{})
	h1, h2 := d.Topo.Hosts[0], d.Topo.Hosts[1]
	sfc := model.NewSFC(2)
	const mu = 1.0

	before := model.Workload{{Src: h1, Dst: h1, Rate: 100}, {Src: h2, Dst: h2, Rate: 1}}
	after := model.Workload{{Src: h1, Dst: h1, Rate: 1}, {Src: h2, Dst: h2, Rate: 100}}

	p, cInit, err := (placement.DP{}).Place(d, before, sfc)
	if err != nil {
		return nil, err
	}
	cSwap := d.CommCost(after, p)
	m, ct, err := (migration.MPareto{}).Migrate(d, after, sfc, p, mu)
	if err != nil {
		return nil, err
	}
	cb := d.MigrationCost(p, m, mu)
	ca := d.CommCost(after, m)

	t := &Table{
		Title:   "Example 1 (Fig. 3) — VNF migration on the k=2 fat-tree PPDC, μ=1",
		Columns: []string{"quantity", "paper", "measured"},
	}
	t.addRow("initial optimal C_a(p), λ=⟨100,1⟩", "410", fmt.Sprintf("%.0f", cInit))
	t.addRow("C_a(p) after swap to λ=⟨1,100⟩", "1004", fmt.Sprintf("%.0f", cSwap))
	t.addRow("migration cost C_b(p,m)", "6", fmt.Sprintf("%.0f", cb))
	t.addRow("post-migration C_a(m)", "410", fmt.Sprintf("%.0f", ca))
	t.addRow("total C_t(p,m)", "416", fmt.Sprintf("%.0f", ct))
	t.addRow("total cost reduction", "58.6%", fmt.Sprintf("%.1f%%", 100*(cSwap-ct)/cSwap))
	return t, nil
}
