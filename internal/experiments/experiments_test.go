package experiments

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vnfopt/internal/model"
)

// quickRuns runs every registered experiment once per package run at
// QuickConfig; the tests below read its tables.
var quickRuns = sync.OnceValue(func() map[string]quickRun {
	runs := map[string]quickRun{}
	for _, id := range IDs() {
		tables, err := Run(id, QuickConfig())
		runs[id] = quickRun{tables, err}
	}
	return runs
})

type quickRun struct {
	tables []*Table
	err    error
}

// quickTables returns experiment id's QuickConfig tables.
func quickTables(t *testing.T, id string) []*Table {
	t.Helper()
	r := quickRuns()[id]
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.tables
}

// TestAllExperimentsQuick runs every registered experiment at QuickConfig
// scale, sanity-checks the tables, and holds their printed text, in
// IDs() order, byte for byte to testdata/quick_tables.txt.
func TestAllExperimentsQuick(t *testing.T) {
	var all strings.Builder
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			tables := quickTables(t, id)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("malformed table: %+v", tab)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("row %v does not match columns %v", row, tab.Columns)
					}
				}
				var sb strings.Builder
				tab.Fprint(&sb)
				if !strings.Contains(sb.String(), tab.Title) {
					t.Fatal("Fprint lost the title")
				}
				all.WriteString(sb.String())
			}
		})
	}
	want, err := os.ReadFile("testdata/quick_tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := all.String(); got != string(want) {
		t.Errorf("quick tables moved from testdata/quick_tables.txt; measured text:\n%s", got)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", QuickConfig()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestExample1MatchesPaperNumbers(t *testing.T) {
	for _, row := range quickTables(t, "example1")[0].Rows {
		if len(row) == 3 && row[1] != row[2] && !strings.Contains(row[0], "reduction") {
			t.Errorf("Example 1 row %q: paper %q vs measured %q", row[0], row[1], row[2])
		}
	}
}

func TestFig7DPWithinGuarantee(t *testing.T) {
	tab := quickTables(t, "fig7")[0]
	// Column order: n, Optimal, DP-Stroll, 2x bound, PD measured.
	for _, row := range tab.Rows {
		opt := parseMean(t, row[1])
		dp := parseMean(t, row[2])
		if dp < opt-1e-6 {
			t.Errorf("n=%s: DP mean %v below Optimal mean %v", row[0], dp, opt)
		}
		if dp > 2*opt+1e-6 {
			t.Errorf("n=%s: DP mean %v above the 2x guarantee (opt %v)", row[0], dp, opt)
		}
	}
}

func TestFig11dShowsReduction(t *testing.T) {
	for _, row := range quickTables(t, "fig11d")[0].Rows {
		mp := parseMean(t, row[1])
		nm := parseMean(t, row[2])
		if mp > nm+1e-6 {
			t.Errorf("n=%s: mPareto daily total %v exceeds NoMigration %v", row[0], mp, nm)
		}
	}
}

// TestFig11OptimalFootnotesBudget: Fig. 11's Optimal column is Algorithm
// 6 under its own name, proven in every QuickConfig hour (no footnote),
// and each table footnotes the hours whose search hits the node budget.
func TestFig11OptimalFootnotesBudget(t *testing.T) {
	for _, tab := range slices.Concat(quickTables(t, "fig11ab"), quickTables(t, "fig11c")) {
		if tab.Columns[2] != "Optimal" && tab.Columns[2] != "Optimal μ=1e4" {
			t.Errorf("%s: column 2 is %q, want Optimal", tab.Title, tab.Columns[2])
		}
		if len(tab.Notes) != 0 {
			t.Errorf("%s: unexpected notes %q", tab.Title, tab.Notes)
		}
	}
	cfg := QuickConfig()
	cfg.Runs, cfg.OptBudget = 1, 1
	a, b, err := fig11ab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fig11c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{a, b, c} {
		if len(tab.Notes) != 1 {
			t.Fatalf("%s: notes %q, want one budget footnote", tab.Title, tab.Notes)
		}
		var count, budget int
		if _, err := fmt.Sscanf(tab.Notes[0], "%d Optimal hours hit the %d-node budget", &count, &budget); err != nil || count <= 0 || budget != 1 {
			t.Errorf("%s: footnote %q (count %d, budget %d, err %v)", tab.Title, tab.Notes[0], count, budget, err)
		}
	}
}

// parseMean extracts the mean from a "mean ± ci" cell.
func parseMean(t *testing.T, cell string) float64 {
	t.Helper()
	fields := strings.Fields(cell)
	if len(fields) == 0 {
		t.Fatalf("empty cell")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	def := DefaultConfig()
	if def.Runs != 20 || def.KSmall != 8 || def.KLarge != 16 {
		t.Fatalf("default config = %+v", def)
	}
	q := QuickConfig()
	if q.Runs >= def.Runs || q.KLarge >= def.KLarge {
		t.Fatalf("quick config not smaller: %+v", q)
	}
}

func TestDefaultHostCapacity(t *testing.T) {
	d := unweightedFatTree(4)
	// Workload with all VMs piled on one host: capacity must cover the
	// initial occupancy so the baselines start feasible.
	h := d.Topo.Hosts[0]
	var mw model.Workload
	for i := 0; i < 10; i++ {
		mw = append(mw, model.VMPair{Src: h, Dst: h, Rate: 1})
	}
	c := defaultHostCapacity(d, mw)
	if c < 20 {
		t.Fatalf("capacity %d cannot hold the 20 initial VMs", c)
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", "z"}},
		Notes:   []string{"caveat"},
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"a,b\n", "1,\"x,y\"\n", "2,z\n", "# caveat\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}
