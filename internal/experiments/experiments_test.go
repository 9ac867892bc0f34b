package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"vnfopt/internal/model"
)

// TestAllExperimentsQuick smoke-runs every registered experiment at
// QuickConfig scale and sanity-checks the tables.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := QuickConfig()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", QuickConfig()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestExample1MatchesPaperNumbers(t *testing.T) {
	tabs, err := Run("example1", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		if len(row) == 3 && row[1] != row[2] && !strings.Contains(row[0], "reduction") {
			t.Errorf("Example 1 row %q: paper %q vs measured %q", row[0], row[1], row[2])
		}
	}
}

func TestFig7DPWithinGuarantee(t *testing.T) {
	cfg := QuickConfig()
	tab, err := fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	cfg := QuickConfig()
	cfg.Runs = 2
	tab, err := fig11d(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
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
	fig11 := func(cfg Config) []*Table {
		t.Helper()
		a, b, err := fig11ab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := fig11c(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []*Table{a, b, c}
	}
	for _, tab := range fig11(QuickConfig()) {
		if tab.Columns[2] != "Optimal" && tab.Columns[2] != "Optimal μ=1e4" {
			t.Errorf("%s: column 2 is %q, want Optimal", tab.Title, tab.Columns[2])
		}
		if len(tab.Notes) != 0 {
			t.Errorf("%s: unexpected notes %q", tab.Title, tab.Notes)
		}
	}
	cfg := QuickConfig()
	cfg.Runs, cfg.OptBudget = 1, 1
	for _, tab := range fig11(cfg) {
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
