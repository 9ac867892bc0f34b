// Package loadgen drives a vnfoptd control plane over HTTP and measures
// what the sharded design claims: that thousands of scenarios ingest and
// serve reads concurrently, and that one streamed NDJSON bulk request
// moves an order of magnitude more updates per second than the same
// updates sent as individual /rates calls.
//
// The generator is deliberately protocol-level — it speaks the public
// JSON API against any base URL and never imports the daemon — so the
// numbers it reports include the full request path: routing, decoding,
// mailbox handoff, and engine ingest. Four phases run in order:
//
//  1. create    POST /v1/scenarios           × Scenarios
//  2. per-call  POST /v1/scenarios/{id}/rates × PerCallRequests
//  3. bulk      POST /v1/scenarios/{id}/rates:bulk (NDJSON) × BulkRequests
//  4. read      GET  /v1/scenarios/{id}/placement × ReadRequests
//
// When Config.Restart is set, a crash/restart phase runs between bulk
// and read: the generator records every scenario's accepted-update
// counter, invokes the hook (which kills and restarts the daemon),
// waits for the /v1 surface to come back — recovery gates it with 503
// — and re-reads the counters. Updates the daemon acknowledged but
// lost across the restart are reported as LostUpdates; with a WAL in
// `always` mode that number must be zero.
//
// Each phase reports throughput and latency quantiles (p50/p90/p99/max).
// Per-call ingest retries 429 backpressure answers with a short backoff,
// as the API documentation tells clients to; retries are counted so a
// saturated control plane is visible in the report, not hidden by it.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"vnfopt/internal/benchmeta"
	"vnfopt/internal/stats"
)

// Config shapes one load-test run. Zero values pick small but meaningful
// defaults; BaseURL is the only required field.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client overrides the HTTP client; nil builds one with a transport
	// sized for Concurrency keep-alive connections.
	Client *http.Client

	// Scenarios is the number of scenarios to create (default 8). Ids are
	// load-0 … load-{n-1}.
	Scenarios int
	// Concurrency is the worker count per phase (default 16).
	Concurrency int
	// Spec is the scenario spec template; the generator sets "id" per
	// scenario. Nil uses a small fat-tree with Flows generated flows and
	// no migration (the cheapest engine, so the harness measures the
	// control plane, not the solver).
	Spec map[string]any
	// Flows bounds the flow-id space rate updates target (default 40).
	Flows int

	// PerCallRequests is the number of single-call /rates requests
	// (default 256), each carrying PerCallBatch updates (default 1).
	PerCallRequests int
	PerCallBatch    int
	// BulkRequests is the number of NDJSON streams (default 4), each
	// carrying BulkUpdates updates (default 16384).
	BulkRequests int
	BulkUpdates  int
	// ReadRequests is the number of placement snapshot reads (default 256).
	ReadRequests int

	// Restart, when non-nil, enables the crash/restart phase between the
	// bulk and read phases. The hook must stop the daemon (however
	// abruptly it likes) and start a replacement over the same durable
	// state, returning the replacement's base URL ("" to keep the old
	// one). The generator then polls until the /v1 surface answers 200 —
	// while recovery replays the WAL the daemon answers 503 — and
	// verifies no acknowledged update was lost.
	Restart func() (newBaseURL string, err error)
	// RestartTimeout bounds the post-restart recovery wait (default 30s).
	RestartTimeout time.Duration

	// Seed makes the generated update sequence reproducible.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Scenarios <= 0 {
		c.Scenarios = 8
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Flows <= 0 {
		c.Flows = 40
	}
	if c.Spec == nil {
		c.Spec = map[string]any{
			"topology": "fat-tree",
			"k":        4,
			"flows":    c.Flows,
			"migrator": "nomigration",
		}
	}
	if c.PerCallRequests <= 0 {
		c.PerCallRequests = 256
	}
	if c.PerCallBatch <= 0 {
		c.PerCallBatch = 1
	}
	if c.BulkRequests <= 0 {
		c.BulkRequests = 4
	}
	if c.BulkUpdates <= 0 {
		c.BulkUpdates = 16384
	}
	if c.ReadRequests <= 0 {
		c.ReadRequests = 256
	}
	if c.RestartTimeout <= 0 {
		c.RestartTimeout = 30 * time.Second
	}
}

// Phase is the measurement of one load phase.
type Phase struct {
	Requests       int     `json:"requests"`
	Errors         int     `json:"errors"`
	Retries        int     `json:"retries,omitempty"` // 429 backpressure retries
	Updates        int64   `json:"updates,omitempty"` // rate updates delivered
	Seconds        float64 `json:"seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	UpdatesPerSec  float64 `json:"updates_per_sec,omitempty"`
	P50Ms          float64 `json:"p50_ms"`
	P90Ms          float64 `json:"p90_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
	LastError      string  `json:"last_error,omitempty"`
}

// RestartPhase measures the crash/restart phase: how long the daemon
// took to serve /v1 again, and whether any acknowledged update survived
// less than intact.
type RestartPhase struct {
	// Seconds is the whole phase: counter capture, hook, recovery wait,
	// and the post-restart verification reads.
	Seconds float64 `json:"seconds"`
	// RecoverySeconds is the wait from the hook returning until the /v1
	// surface answered 200 — the WAL replay.
	RecoverySeconds float64 `json:"recovery_seconds"`
	// ScenariosOK counts scenarios whose metrics were readable after the
	// restart.
	ScenariosOK int `json:"scenarios_ok"`
	// UpdatesBefore/UpdatesAfter sum the accepted-update counters across
	// scenarios on either side of the restart.
	UpdatesBefore int64 `json:"updates_before"`
	UpdatesAfter  int64 `json:"updates_after"`
	// LostUpdates sums, per scenario, the acknowledged updates missing
	// after recovery. Zero under a WAL in `always` mode; under `interval`
	// the final sync window is legitimately at risk on a hard kill.
	LostUpdates int64  `json:"lost_updates"`
	Error       string `json:"error,omitempty"`
}

// Report is the full result of a Run.
type Report struct {
	// Host pins the machine and toolchain the numbers were recorded on.
	Host        benchmeta.Host `json:"host"`
	Scenarios   int            `json:"scenarios"`
	Concurrency int            `json:"concurrency"`
	Create      Phase          `json:"create"`
	PerCall     Phase          `json:"percall_ingest"`
	Bulk        Phase          `json:"bulk_ingest"`
	// Restart is present only when Config.Restart was set.
	Restart *RestartPhase `json:"restart,omitempty"`
	Read    Phase         `json:"placement_read"`
	// BulkSpeedup is bulk updates/sec over per-call updates/sec — the
	// headline number the bulk API exists for.
	BulkSpeedup float64 `json:"bulk_speedup_x"`
}

// Run executes the four phases against cfg.BaseURL and returns the
// report. An error is returned only for setup failures; request-level
// failures are counted in the phase they occurred in.
func Run(cfg Config) (*Report, error) {
	cfg.setDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency * 2,
				MaxIdleConnsPerHost: cfg.Concurrency * 2,
				IdleConnTimeout:     time.Minute,
			},
			Timeout: 5 * time.Minute,
		}
	}
	g := &generator{cfg: cfg, client: client}
	rep := &Report{Host: benchmeta.Collect(), Scenarios: cfg.Scenarios, Concurrency: cfg.Concurrency}

	rep.Create = g.runPhase(cfg.Scenarios, g.create)
	rep.PerCall = g.runPhase(cfg.PerCallRequests, g.perCall)
	rep.Bulk = g.runPhase(cfg.BulkRequests, g.bulk)
	if cfg.Restart != nil {
		rep.Restart = g.restart()
	}
	rep.Read = g.runPhase(cfg.ReadRequests, g.read)
	if rep.PerCall.UpdatesPerSec > 0 {
		rep.BulkSpeedup = rep.Bulk.UpdatesPerSec / rep.PerCall.UpdatesPerSec
	}
	return rep, nil
}

type generator struct {
	cfg    Config
	client *http.Client
}

func (g *generator) scenarioID(i int) string {
	return fmt.Sprintf("load-%d", i%g.cfg.Scenarios)
}

// op is one timed request: it reports the number of updates it
// delivered and how many 429 retries it needed.
type opResult struct {
	updates int64
	retries int
	err     error
}

// runPhase fans n ops across the worker pool and aggregates the phase.
func (g *generator) runPhase(n int, op func(rng *rand.Rand, i int) opResult) Phase {
	workers := g.cfg.Concurrency
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next      int64 // shared work counter, accessed under mu
		mu        sync.Mutex
		wg        sync.WaitGroup
		latencies = make([][]float64, workers)
		results   = make([]opResult, n)
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.cfg.Seed + int64(w)*7919))
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				t0 := time.Now()
				results[i] = op(rng, i)
				latencies[w] = append(latencies[w], time.Since(t0).Seconds()*1000)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	p := Phase{Requests: n, Seconds: elapsed}
	var all []float64
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Float64s(all)
	p.P50Ms = stats.Quantile(all, 0.50)
	p.P90Ms = stats.Quantile(all, 0.90)
	p.P99Ms = stats.Quantile(all, 0.99)
	if len(all) > 0 {
		p.MaxMs = all[len(all)-1]
	}
	for _, r := range results {
		p.Updates += r.updates
		p.Retries += r.retries
		if r.err != nil {
			p.Errors++
			p.LastError = r.err.Error()
		}
	}
	if elapsed > 0 {
		p.RequestsPerSec = float64(n) / elapsed
		p.UpdatesPerSec = float64(p.Updates) / elapsed
	}
	return p
}

// post sends body and drains the response, retrying 429 with a short
// backoff (the documented client behavior for mailbox backpressure).
func (g *generator) post(url, contentType string, body []byte) (retries int, err error) {
	for attempt := 0; ; attempt++ {
		resp, err := g.client.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			return retries, err
		}
		status := resp.StatusCode
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case status < 300:
			return retries, nil
		case status == http.StatusTooManyRequests && attempt < 8:
			retries++
			time.Sleep(time.Duration(1+attempt) * 5 * time.Millisecond)
		default:
			return retries, fmt.Errorf("POST %s: status %d", url, status)
		}
	}
}

func (g *generator) create(rng *rand.Rand, i int) opResult {
	spec := make(map[string]any, len(g.cfg.Spec)+1)
	for k, v := range g.cfg.Spec {
		spec[k] = v
	}
	spec["id"] = g.scenarioID(i)
	body, err := json.Marshal(spec)
	if err != nil {
		return opResult{err: err}
	}
	retries, err := g.post(g.cfg.BaseURL+"/v1/scenarios", "application/json", body)
	return opResult{retries: retries, err: err}
}

// appendUpdates writes n random updates as a JSON array into buf.
func (g *generator) appendUpdates(buf *bytes.Buffer, rng *rand.Rand, n int) {
	buf.WriteByte('[')
	for j := 0; j < n; j++ {
		if j > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(buf, `{"flow":%d,"rate":%.3f}`, rng.Intn(g.cfg.Flows), 0.1+rng.Float64()*9.9)
	}
	buf.WriteByte(']')
}

func (g *generator) perCall(rng *rand.Rand, i int) opResult {
	var buf bytes.Buffer
	buf.WriteString(`{"updates":`)
	g.appendUpdates(&buf, rng, g.cfg.PerCallBatch)
	buf.WriteByte('}')
	url := g.cfg.BaseURL + "/v1/scenarios/" + g.scenarioID(i) + "/rates"
	retries, err := g.post(url, "application/json", buf.Bytes())
	res := opResult{retries: retries, err: err}
	if err == nil {
		res.updates = int64(g.cfg.PerCallBatch)
	}
	return res
}

// bulkLineChunk is the array-chunk size per NDJSON line; well under the
// server's per-line bound at any realistic update encoding.
const bulkLineChunk = 1000

func (g *generator) bulk(rng *rand.Rand, i int) opResult {
	var buf bytes.Buffer
	remaining := g.cfg.BulkUpdates
	for remaining > 0 {
		n := bulkLineChunk
		if n > remaining {
			n = remaining
		}
		g.appendUpdates(&buf, rng, n)
		buf.WriteByte('\n')
		remaining -= n
	}
	url := g.cfg.BaseURL + "/v1/scenarios/" + g.scenarioID(i) + "/rates:bulk"
	retries, err := g.post(url, "application/x-ndjson", buf.Bytes())
	res := opResult{retries: retries, err: err}
	if err == nil {
		res.updates = int64(g.cfg.BulkUpdates)
	}
	return res
}

func (g *generator) read(rng *rand.Rand, i int) opResult {
	url := g.cfg.BaseURL + "/v1/scenarios/" + g.scenarioID(rng.Intn(g.cfg.Scenarios)) + "/placement"
	resp, err := g.client.Get(url)
	if err != nil {
		return opResult{err: err}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return opResult{err: fmt.Errorf("GET %s: status %d", url, resp.StatusCode)}
	}
	return opResult{}
}

// acceptedUpdates reads every scenario's accepted-update counter from
// GET /v1/scenarios/{id}/metrics. Unreadable scenarios are skipped (and
// the last failure returned) so a partial answer still lets the caller
// count survivors.
func (g *generator) acceptedUpdates() (map[string]int64, error) {
	out := make(map[string]int64, g.cfg.Scenarios)
	var lastErr error
	for i := 0; i < g.cfg.Scenarios; i++ {
		id := g.scenarioID(i)
		url := g.cfg.BaseURL + "/v1/scenarios/" + id + "/metrics"
		resp, err := g.client.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		var body struct {
			Metrics struct {
				UpdatesAccepted int64 `json:"updates_accepted"`
			} `json:"metrics"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			lastErr = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
		case err != nil:
			lastErr = fmt.Errorf("GET %s: %w", url, err)
		default:
			out[id] = body.Metrics.UpdatesAccepted
		}
	}
	return out, lastErr
}

// restart runs the crash/restart phase: capture counters, crash and
// restart the daemon through the hook, wait out recovery, and account
// for every update the old daemon had acknowledged.
func (g *generator) restart() *RestartPhase {
	ph := &RestartPhase{}
	start := time.Now()
	defer func() { ph.Seconds = time.Since(start).Seconds() }()

	before, err := g.acceptedUpdates()
	if err != nil {
		ph.Error = fmt.Sprintf("pre-restart counters: %v", err)
		return ph
	}
	for _, n := range before {
		ph.UpdatesBefore += n
	}

	newURL, err := g.cfg.Restart()
	if err != nil {
		ph.Error = fmt.Sprintf("restart hook: %v", err)
		return ph
	}
	if newURL != "" {
		g.cfg.BaseURL = newURL
	}

	// Wait for the /v1 surface: while the replacement replays its WAL it
	// answers 503, so a 200 here means recovery is complete.
	recoverStart := time.Now()
	deadline := recoverStart.Add(g.cfg.RestartTimeout)
	for {
		resp, err := g.client.Get(g.cfg.BaseURL + "/v1/scenarios")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			ph.Error = fmt.Sprintf("daemon not serving /v1 within %s of restart", g.cfg.RestartTimeout)
			return ph
		}
		time.Sleep(10 * time.Millisecond)
	}
	ph.RecoverySeconds = time.Since(recoverStart).Seconds()

	after, err := g.acceptedUpdates()
	if err != nil {
		ph.Error = fmt.Sprintf("post-restart counters: %v", err)
	}
	ph.ScenariosOK = len(after)
	for id, n := range after {
		ph.UpdatesAfter += n
		if lost := before[id] - n; lost > 0 {
			ph.LostUpdates += lost
		}
	}
	// A scenario that vanished entirely lost everything it had accepted.
	for id, n := range before {
		if _, ok := after[id]; !ok {
			ph.LostUpdates += n
		}
	}
	return ph
}
