package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
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

// errorPathOnly lists the metric families a healthy run never creates
// and the event kinds it never appends: each comes from the error path
// it counts, on its first occurrence.
var errorPathOnly = []string{
	"vnfopt_engine_step_errors_total", // engine.Observer, on the first failed Step
	"step_error",                      // the event that failed Step appends
}

// catalogDocs are the documents whose metric tables are the catalog.
var catalogDocs = []string{"../../docs/OBSERVABILITY.md", "../../docs/RESILIENCE.md"}

// TestMetricCatalogMatchesDocs is the catalog-drift guard: the metric
// families a daemon exports are exactly the ones the documents' metric
// tables name, and the event kinds its scenarios append exactly the ones
// the event table of docs/OBSERVABILITY.md names, in both directions. One
// scripted run with the WAL on touches every subsystem that registers a
// series or appends an event — create with spec.routing, /rates, /step,
// an inject and heal of a switch holding a VNF, a degrade, and a second
// scenario too tight to admit its flows, deleted at the end — then
// /metrics is scraped and each sample reduced to its family (labels and
// the _sum/_count/_bucket of a summary stripped), and each scenario's
// /events read back. What only an error path creates is on
// errorPathOnly.
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
	spec := func(id string, capacity float64) map[string]any {
		return map[string]any{
			"id": id, "k": 4, "sfc_len": 2, "flows": 12, "seed": 7,
			"routing": map[string]any{"link_capacity": capacity, "alpha": 1, "classify": true},
		}
	}
	kinds := map[string]bool{}
	readEvents := func(id string) {
		t.Helper()
		var page struct {
			Events []struct {
				Type string `json:"type"`
			} `json:"events"`
		}
		if code := do(t, ts, "GET", "/v1/scenarios/"+id+"/events", nil, &page); code != http.StatusOK {
			t.Fatalf("GET %s events: status %d", id, code)
		}
		for _, ev := range page.Events {
			kinds[ev.Type] = true
		}
	}
	link := topology.MustFatTree(4, nil).Graph.Neighbors(0)[0].To
	deg := fault.Fault{Kind: fault.Degrade, U: 0, V: link, Factor: 2}

	call("POST", "/v1/scenarios", spec("cat", 100000), http.StatusCreated)
	sw := fault.Fault{Kind: fault.Switch, U: srv.get("cat").eng.Snapshot().Placement[0]}
	call("POST", "/v1/scenarios/cat/rates", ratesRequest{Updates: []engine.RateUpdate{{Flow: 0, Rate: 50000}}}, http.StatusOK) // pulls the chain to flow 0: a migration
	call("POST", "/v1/scenarios/cat/step", nil, http.StatusOK)
	call("POST", "/v1/scenarios/cat/faults", faultsRequest{Inject: []fault.Fault{sw}}, http.StatusOK)
	call("POST", "/v1/scenarios/cat/faults", faultsRequest{Heal: []fault.Fault{sw}}, http.StatusOK)
	call("POST", "/v1/scenarios/cat/faults", faultsRequest{Inject: []fault.Fault{deg}}, http.StatusOK)
	readEvents("cat")
	call("POST", "/v1/scenarios", spec("gone", 1), http.StatusCreated)
	readEvents("gone")
	call("DELETE", "/v1/scenarios/gone", nil, http.StatusOK)

	exported := scrapeFamilies(t, ts)
	for _, f := range errorPathOnly {
		if strings.HasPrefix(f, "vnfopt") {
			exported[f] = true
		} else {
			kinds[f] = true
		}
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
	if table := docEventKinds(t, "../../docs/OBSERVABILITY.md"); !maps.Equal(kinds, table) {
		t.Errorf("event kinds appended %v, the event table of docs/OBSERVABILITY.md names %v", kinds, table)
	}
}

// docEventKinds returns the backticked kinds in the first column of the
// table under the "## Events" heading of path.
func docEventKinds(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Events\n")
	if !ok {
		t.Fatalf("%s: no Events section", path)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	out := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " | ")
		if kind, ok := strings.CutPrefix(first, "`"); ok && strings.HasPrefix(line, "| ") {
			out[strings.TrimSuffix(kind, "`")] = true
		}
	}
	return out
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

// TestAPICreateExampleDecodes keeps the create example of docs/API.md
// honest: its "policy" and "routing" objects decode strictly — as the
// daemon decodes a create — into engine.Policy and engine.RoutingConfig,
// and the routing object sets the required link capacity.
func TestAPICreateExampleDecodes(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, example, ok := strings.Cut(string(raw), "### `POST /v1/scenarios` — create")
	if !ok {
		t.Fatal("docs/API.md: no create section")
	}
	_, example, _ = strings.Cut(example, "```json\n")
	example, _, _ = strings.Cut(example, "```")
	field := func(key string) []byte {
		t.Helper()
		for _, line := range strings.Split(example, "\n") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(line), `"`+key+`":`); ok {
				v, _, _ = strings.Cut(v, "//")
				return []byte(strings.TrimSuffix(strings.TrimSpace(v), ","))
			}
		}
		t.Fatalf("docs/API.md create example has no %q", key)
		return nil
	}
	strict := func(data []byte, v any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("docs/API.md create example: %s: %v", data, err)
		}
	}
	var pol engine.Policy
	strict(field("policy"), &pol)
	var rc engine.RoutingConfig
	strict(field("routing"), &rc)
	if rc.LinkCapacity <= 0 {
		t.Fatalf("docs/API.md create example: routing without the required link_capacity: %+v", rc)
	}
}
