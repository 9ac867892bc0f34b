// Package experiments regenerates every figure of the paper's evaluation
// (Section VI). Each Fig* function produces one or more Tables whose rows
// correspond to the series the paper plots; cmd/vnfsim prints them and the
// top-level benchmarks run them at reduced scale.
//
// Scales: DefaultConfig reproduces the paper's parameters (k=8 and k=16
// fat trees, 20-run averages); QuickConfig shrinks arity, flow counts, and
// run counts so the whole suite finishes in seconds for CI and
// `go test -bench`.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"vnfopt/internal/model"
	"vnfopt/internal/stats"
	"vnfopt/internal/topology"
)

// Config controls experiment scale.
type Config struct {
	// Runs is the number of repetitions per data point (paper: 20).
	Runs int
	// Seed is the base RNG seed; run r of a figure derives its own
	// stream from it, so tables are reproducible.
	Seed int64
	// KSmall is the fat-tree arity for the placement experiments
	// (paper: 8).
	KSmall int
	// KLarge is the arity for the dynamic-traffic experiments
	// (paper: 16).
	KLarge int
	// FlowsSmall is the VM-pair count for Fig. 9/10 (paper's plots do
	// not pin it; 100 keeps shapes stable).
	FlowsSmall int
	// FlowsLarge is the VM-pair count for Fig. 11(a,b,d). The paper does
	// not pin l for these plots; dynamic traffic matters most when
	// individual heavy flows move the optimum, so the default is modest
	// (Fig. 11(c) sweeps l on an exponential scale around this value).
	FlowsLarge int
	// TenantRacks is how many racks the Fig. 11 workloads concentrate
	// their VM pairs into (tenant skew; see workload.PairsClustered).
	TenantRacks int
	// VNFs is the default SFC length n where a figure holds it fixed
	// (paper: 7 for Fig. 11).
	VNFs int
	// Mu is the default VNF migration coefficient (paper: 10^4–10^5).
	Mu float64
	// HourVolume converts a traffic *rate* λ (communication frequency
	// per time unit) into an hourly traffic *volume*: one simulated hour
	// carries HourVolume·λ units past the SFC while a migration is paid
	// once. The paper leaves this discretization implicit; its Fig. 11
	// dynamics (tens of VNF migrations per day at μ=10⁴, many more VM
	// migrations for PLAN/MCF) correspond to ≈10 rate units per hour.
	HourVolume float64
	// OptBudget caps branch-and-bound expansions for the exhaustive
	// Optimal algorithms (Algorithm 4 in Figs. 7, 9 and 10, Algorithm 6
	// in each hour of Fig. 11); 0 = unlimited. A search that hits it
	// reports its anytime incumbent, counted in the table's footnote.
	OptBudget int
	// HostCapacity bounds VMs per host for the PLAN/MCF baselines
	// (0 = twice the average initial occupancy, set per workload).
	HostCapacity int
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Runs:        20,
		Seed:        1,
		KSmall:      8,
		KLarge:      16,
		FlowsSmall:  100,
		FlowsLarge:  512,
		TenantRacks: 6,
		VNFs:        7,
		Mu:          1e4,
		HourVolume:  10,
		OptBudget:   2_000_000,
	}
}

// QuickConfig returns a seconds-scale configuration for benchmarks and CI.
func QuickConfig() Config {
	return Config{
		Runs:        3,
		Seed:        1,
		KSmall:      4,
		KLarge:      8,
		FlowsSmall:  30,
		FlowsLarge:  64,
		TenantRacks: 4,
		VNFs:        5,
		Mu:          1e4,
		HourVolume:  10,
		OptBudget:   200_000,
	}
}

// Table is one experiment's output: the rows the paper plots.
type Table struct {
	// Title names the figure, e.g. "Fig. 7 — TOP-1 algorithms".
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes records caveats (e.g. budget-limited Optimal points).
	Notes []string
}

// addRow appends a formatted row.
func (t *Table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// addNote appends a footnote.
func (t *Table) addNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	var hdr []string
	for i, c := range t.Columns {
		hdr = append(hdr, pad(c, widths[i]))
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(hdr, "  "))
	for _, row := range t.Rows {
		var cells []string
		for i, c := range row {
			wd := 0
			if i < len(widths) {
				wd = widths[i]
			}
			cells = append(cells, pad(c, wd))
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(cells, "  "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV renders the table as RFC-4180 CSV (header row first; notes as
// trailing comment lines) for downstream plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// fmtSummary renders a stats summary as "mean ± ci".
func fmtSummary(s stats.Summary) string {
	return fmt.Sprintf("%.1f ± %.1f", s.Mean, s.CI95Half)
}

// runSeed derives a deterministic per-run RNG.
func (c Config) runSeed(figure string, run int) *rand.Rand {
	h := int64(17)
	for _, b := range []byte(figure) {
		h = h*31 + int64(b)
	}
	return rand.New(rand.NewSource(c.Seed + h*1_000_003 + int64(run)*7_919))
}

// ppdcCache memoizes unweighted fat-tree PPDCs: the APSP computation at
// k=16 is the dominant per-run fixed cost and the topology never changes
// across runs.
var ppdcCache sync.Map // key int (arity) -> *model.PPDC

// unweightedFatTree returns a cached PPDC for the k-ary unit-weight fat
// tree.
func unweightedFatTree(k int) *model.PPDC {
	if v, ok := ppdcCache.Load(k); ok {
		return v.(*model.PPDC)
	}
	d := model.MustNew(topology.MustFatTree(k, nil), model.Options{})
	actual, _ := ppdcCache.LoadOrStore(k, d)
	return actual.(*model.PPDC)
}
