package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/topology"
)

// errorPathOnly lists the families a healthy run never creates: each is
// registered by the error path it counts, on its first occurrence.
var errorPathOnly = []string{
	"vnfopt_engine_step_errors_total", // engine.Observer, on the first failed Step
}

// catalogDocs are the documents whose metric tables are the catalog.
var catalogDocs = []string{"../../docs/OBSERVABILITY.md", "../../docs/RESILIENCE.md"}

// TestMetricCatalogMatchesDocs is the catalog-drift guard: the metric
// families a daemon exports are exactly the ones the documents' metric
// tables name, in both directions. One scripted run with the WAL on
// touches every subsystem that registers a series — create with
// spec.routing, /rates, /step, a switch inject and heal, a degrade, and a
// delete of a second scenario — then /metrics is scraped and each sample
// reduced to its family (labels and the _sum/_count/_bucket of a summary
// stripped). A series only an error path creates is on errorPathOnly.
func TestMetricCatalogMatchesDocs(t *testing.T) {
	srv := bootWAL(t, t.TempDir(), "")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	call := func(method, path string, body any, want int) {
		t.Helper()
		if code := do(t, ts, method, path, body, nil); code != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, code, want)
		}
	}
	spec := func(id string) map[string]any {
		return map[string]any{
			"id": id, "k": 4, "sfc_len": 2, "flows": 12, "seed": 7,
			"routing": map[string]any{"link_capacity": 100000, "alpha": 1, "classify": true},
		}
	}
	link := topology.MustFatTree(4, nil).Graph.Neighbors(0)[0].To
	sw := fault.Fault{Kind: fault.Switch, U: 0}
	deg := fault.Fault{Kind: fault.Degrade, U: 0, V: link, Factor: 2}

	call("POST", "/v1/scenarios", spec("cat"), http.StatusCreated)
	call("POST", "/v1/scenarios/cat/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 5}}}, http.StatusOK)
	call("POST", "/v1/scenarios/cat/step", nil, http.StatusOK)
	call("POST", "/v1/scenarios/cat/faults", faultsRequest{Inject: []fault.Fault{sw}}, http.StatusOK)
	call("POST", "/v1/scenarios/cat/faults", faultsRequest{Heal: []fault.Fault{sw}}, http.StatusOK)
	call("POST", "/v1/scenarios/cat/faults", faultsRequest{Inject: []fault.Fault{deg}}, http.StatusOK)
	call("POST", "/v1/scenarios", spec("gone"), http.StatusCreated)
	call("DELETE", "/v1/scenarios/gone", nil, http.StatusOK)

	exported := scrapeFamilies(t, ts)
	for _, f := range errorPathOnly {
		exported[f] = true
	}
	documented := map[string]bool{}
	for _, path := range catalogDocs {
		for f := range docFamilies(t, path) {
			documented[f] = true
		}
	}
	var undocumented, gone []string
	for f := range exported {
		if !documented[f] {
			undocumented = append(undocumented, f)
		}
	}
	for f := range documented {
		if !exported[f] {
			gone = append(gone, f)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(gone)
	if len(undocumented) > 0 {
		t.Errorf("exported but in no metric table of %v: %v", catalogDocs, undocumented)
	}
	if len(gone) > 0 {
		t.Errorf("in a metric table but not exported: %v", gone)
	}
}

// scrapeFamilies reads /metrics and returns the family of every sample:
// its name without labels, less the _sum/_count/_bucket of a family the
// exposition declares.
func scrapeFamilies(t *testing.T, ts *httptest.Server) map[string]bool {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	declared := map[string]bool{}
	var names []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			declared[f[2]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, line[:strings.IndexAny(line, "{ ")])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, name := range names {
		fam := name
		for _, suffix := range []string{"_sum", "_count", "_bucket"} {
			if base := strings.TrimSuffix(name, suffix); base != name && declared[base] {
				fam = base
			}
		}
		if !declared[fam] {
			t.Fatalf("sample %s has no # TYPE family", name)
		}
		families[fam] = true
	}
	return families
}

// docName is a backticked metric name at the start of a token.
var docName = regexp.MustCompile("`(vnfoptd?_[a-z0-9_]+)")

// docFamilies returns the metric names in the first column of the
// markdown tables of path.
func docFamilies(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		first, _, _ := strings.Cut(line[2:], " | ") // an escaped \| has no spaces
		for _, m := range docName.FindAllStringSubmatch(first, -1) {
			out[m[1]] = true
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no metric table rows", path)
	}
	return out
}
