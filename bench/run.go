package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vnfopt/internal/engine"
)

// runConfig is what one run of one workload needs besides the workload.
type runConfig struct {
	bin     string // built vnfoptd
	outDir  string
	procs   int     // daemon GOMAXPROCS
	seconds float64 // scales the size's per-second op counts
	trace   bool
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Clients   int                `json:"clients"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Failures  []string           `json:"failures,omitempty"`

	mu sync.Mutex // clients and oracle goroutines report failures concurrently
}

// fail records a failed op (or a failed check that stands for one); only
// the first few reasons are kept.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// done is one executed op as the client saw it.
type done struct {
	o       *op
	client  int
	raw     []byte // response body of a 2xx mutating op, for the oracle
	post    int64  // ns: request sent → response read
	read    int64  // ns: the GET …/placement of a read op or of a react's visibility check
	slice   int    // slice of the timed section's phase A the op ran in
	phaseB  bool
	retries int
	failed  bool
}

// ackView and snapView pick the few fields the visibility check needs out
// of an ack and a placement snapshot.
type ackView struct {
	Step *struct {
		Epoch int `json:"epoch"`
	} `json:"step"`
	Active []json.RawMessage `json:"active"`
}

type snapView struct {
	Epoch        int `json:"epoch"`
	ActiveFaults int `json:"active_faults"`
}

// client is one closed-loop generator connection: it sends its next op
// only after the previous one completed.
type client struct {
	idx  int // which of wl.clients this is
	addr string
	c    *conn
	wl   *workload
	res  *result
	pos  int // next op of the mix stream
	bpos int // next op of the bulk stream
	log  []done
	dead bool // the connection broke and could not be re-made: no further op is sent
}

func (cl *client) connect() error {
	c, err := dial(cl.addr)
	if err != nil {
		return err
	}
	if cl.c != nil {
		cl.c.close()
	}
	cl.c = c
	return nil
}

// exec runs one op to completion: send, retry documented backpressure,
// and — for a reaction — read the placement back until the change shows.
func (cl *client) exec(o *op, slice int, phaseB bool) {
	d := done{o: o, client: cl.idx, slice: slice, phaseB: phaseB}
	t0 := time.Now()
	var (
		status int
		body   []byte
		err    error
	)
	for attempt := 0; ; attempt++ {
		status, body, err = cl.c.do(o.req)
		// 429 is the documented mailbox backpressure: back off and resend.
		if err != nil || status != http.StatusTooManyRequests || attempt >= 8 {
			break
		}
		d.retries++
		time.Sleep(time.Duration(1+attempt) * 5 * time.Millisecond)
	}
	t1 := time.Now()
	d.post = int64(t1.Sub(t0))
	switch {
	case err != nil:
		d.failed = true
		cl.res.fail("%s: %v", cl.wl.scenarios[o.sc].ID, err)
		if err := cl.connect(); err != nil {
			cl.dead = true
			cl.res.fail("reconnect: %v", err)
		}
	case status/100 != 2:
		d.failed = true
		cl.res.fail("%s: status %d: %.200s", cl.wl.scenarios[o.sc].ID, status, body)
	case o.kind == opRead:
		d.read = d.post
	default:
		d.raw = body
		if cl.wl.visible {
			if err := cl.awaitVisible(o, body); err != nil {
				d.failed = true
				cl.res.fail("%s: %v", cl.wl.scenarios[o.sc].ID, err)
			}
			d.read = int64(time.Since(t1))
		}
	}
	cl.log = append(cl.log, d)
}

// awaitVisible reads the placement snapshot back and checks it reflects
// the acknowledged change: the epoch the step closed, or the fault count
// the transition left. The daemon publishes before it acks, so the first
// read must already show it; anything else is a failed op, not a retry.
func (cl *client) awaitVisible(o *op, ackBody []byte) error {
	var ack ackView
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		return fmt.Errorf("bad ack: %v", err)
	}
	status, body, err := cl.c.do(cl.wl.placementReq[o.sc])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET placement: status %d", status)
	}
	var snap snapView
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("bad placement: %v", err)
	}
	switch {
	case o.kind == opFaults && snap.ActiveFaults != len(ack.Active):
		return fmt.Errorf("placement shows %d active faults after an ack with %d", snap.ActiveFaults, len(ack.Active))
	case ack.Step != nil && snap.Epoch < ack.Step.Epoch:
		return fmt.Errorf("placement at epoch %d after ack of epoch %d", snap.Epoch, ack.Step.Epoch)
	}
	return nil
}

// loop issues the next n ops of the mix stream (or, with bulk, the bulk
// stream) and returns how long they took.
func (cl *client) loop(bulk, phaseB bool, n, slice int) time.Duration {
	start := time.Now()
	for i := 0; i < n && !cl.dead; i++ {
		if bulk {
			cl.exec(&cl.wl.bulk[cl.bpos%len(cl.wl.bulk)], slice, phaseB)
			cl.bpos++
		} else {
			ops := cl.wl.clients[cl.idx]
			cl.exec(&ops[cl.pos%len(ops)], slice, phaseB)
			cl.pos++
		}
	}
	return time.Since(start)
}

// phase runs every client's loop concurrently — client i issues n[i] ops —
// waits for all of them and returns how long each client's ops took.
func phase(clients []*client, bulkClient int, phaseB bool, n []int, slice int) []time.Duration {
	took := make([]time.Duration, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			took[i] = cl.loop(i == bulkClient, phaseB, n[i], slice)
		}()
	}
	wg.Wait()
	return took
}

// round is one measured set-up and the crash recovery after it, each with
// the host speed around it.
type round struct {
	setupS, recoveryS         float64
	setupSpeed, recoverySpeed float64
}

// setupRound is one measured set-up followed by one measured crash
// recovery: spawn → ready → create every scenario → warm-up ops, then
// SIGKILL → restart on the same directories → ready. It leaves the
// recovered daemon running with the clients connected.
func setupRound(wl *workload, d *daemon, cals []*calibrator, res *result) (clients []*client, r round, preKill map[string]float64, err error) {
	var speed [3]float64 // before set-up, between set-up and the kill, after recovery
	if speed[0], err = hostSpeed(cals); err != nil {
		return
	}
	t0 := time.Now()
	if err = d.start(); err != nil {
		return
	}
	c, err := dial(d.addr)
	if err != nil {
		return
	}
	for i := range wl.scenarios {
		body, _ := json.Marshal(&wl.scenarios[i])
		status, out, derr := c.do(postRequest("/v1/scenarios", "application/json", body))
		res.Attempted++
		if derr != nil || status != http.StatusCreated {
			c.close()
			err = fmt.Errorf("create %s: status %d %v %.200s", wl.scenarios[i].ID, status, derr, out)
			return
		}
	}
	c.close()
	for i := range wl.clients {
		cl := &client{addr: d.addr, wl: wl, res: res, idx: i}
		if err = cl.connect(); err != nil {
			return
		}
		clients = append(clients, cl)
	}
	phase(clients, -1, false, perClient(clients, wl.warmup), 0)
	r.setupS = time.Since(t0).Seconds()
	if speed[1], err = hostSpeed(cals); err != nil {
		return
	}

	if preKill, err = d.scrape(); err != nil {
		return
	}
	for _, cl := range clients {
		cl.c.close()
	}
	t1 := time.Now()
	d.kill()
	if err = d.start(); err != nil {
		return
	}
	r.recoveryS = time.Since(t1).Seconds()
	if speed[2], err = hostSpeed(cals); err != nil {
		return
	}
	r.setupSpeed, r.recoverySpeed = math.Sqrt(speed[0]*speed[1]), math.Sqrt(speed[1]*speed[2])
	for _, cl := range clients {
		if err = cl.connect(); err != nil {
			return
		}
	}
	return
}

// perClient is n ops for every client.
func perClient(clients []*client, n int) []int {
	out := make([]int, len(clients))
	for i := range out {
		out[i] = n
	}
	return out
}

// runWorkload is one full run: generate, set up (sz.setups times),
// measure, verify against the in-process oracle, and — when tracing —
// replay through the layers with spans.
func runWorkload(cfg *runConfig, name string, seed int64, sz size) (*result, error) {
	res := &result{Workload: name, Seed: seed, Metrics: make(map[string]float64)}
	wl, err := generate(name, seed, sz)
	if err != nil {
		return nil, err
	}
	res.Clients = len(wl.clients)
	stderr, err := os.Create(filepath.Join(cfg.outDir, "daemon-"+name+".log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()

	cals := make([]*calibrator, len(wl.clients))
	for i := range cals {
		if cals[i], err = newCalibrator(); err != nil {
			return nil, err
		}
		defer cals[i].stop()
	}
	var (
		d       *daemon
		clients []*client
		rounds  []round
		preKill map[string]float64
	)
	defer func() {
		if d != nil {
			d.kill()
			_ = os.RemoveAll(d.dir)
		}
	}()
	for i := 0; i < sz.setups; i++ {
		if d != nil {
			d.kill()
			_ = os.RemoveAll(d.dir)
			res.Attempted += countOps(clients) // the discarded round's warm-up
		}
		dir, err := os.MkdirTemp(cfg.outDir, "run-")
		if err != nil {
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d = &daemon{bin: cfg.bin, addr: addr, dir: dir, walFlags: walPolicy[name], procs: cfg.procs, stderr: stderr}
		var r round
		clients, r, preKill, err = setupRound(wl, d, cals, res)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		rounds = append(rounds, r)
	}
	// Each round's times are taken at the host speed around that round;
	// the run reports the median round.
	m := res.Metrics
	var setupS, recoveryS, setupRaw, recoveryRaw []float64
	for _, r := range rounds {
		setupS, setupRaw = append(setupS, r.setupS/r.setupSpeed), append(setupRaw, r.setupS)
		recoveryS, recoveryRaw = append(recoveryS, r.recoveryS/r.recoverySpeed), append(recoveryRaw, r.recoveryS)
	}
	m["setup_s"], m["client.setup_raw_s"] = median(setupS), median(setupRaw)
	m["recovery_s"], m["client.recovery_raw_s"] = median(recoveryS), median(recoveryRaw)

	// No acknowledged update may be missing after the crash.
	acked := make([]int64, len(wl.scenarios))
	for _, cl := range clients {
		for _, dn := range cl.log {
			if !dn.failed && dn.o.kind != opRead {
				acked[dn.o.sc] += int64(len(dn.o.updates))
			}
		}
	}
	check, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer check.close()
	for i := range wl.scenarios {
		var out struct {
			Metrics engine.Metrics `json:"metrics"`
		}
		status, body, err := check.do(getRequest("/v1/scenarios/" + wl.scenarios[i].ID + "/metrics"))
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &out) != nil {
			res.fail("%s: metrics unreadable after recovery (status %d, %v)", wl.scenarios[i].ID, status, err)
		} else if out.Metrics.UpdatesAccepted < acked[i] {
			res.fail("%s: %d acknowledged updates lost across the crash", wl.scenarios[i].ID, acked[i]-out.Metrics.UpdatesAccepted)
		}
	}
	if cfg.trace {
		m["vnfoptd.healthz_p50_ms"] = healthzP50(check)
	}

	// The timed section.
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	marks := make([]int, len(clients)) // ops before the timed section, per client
	for i, cl := range clients {
		marks[i] = len(cl.log)
	}
	dcpu0, ccpu0 := procCPU(d.pid()), selfCPU()
	start := time.Now()
	var calWall, calCPU float64 // what reading the host speed cost the generator
	// Phase A, in slices: between slices the clients stand still and the
	// host speed is read, so each slice's ops are taken at the speed of the
	// host around them.
	perSlice := max(1, int(math.Round(sz.ops*cfg.seconds/slices)))
	sec := timedSection{speed: make([]float64, slices+1)}
	for sl := 0; sl <= slices; sl++ {
		t, cpu := time.Now(), selfCPU()
		if sec.speed[sl], err = hostSpeed(cals); err != nil {
			return nil, err
		}
		calWall, calCPU = calWall+time.Since(t).Seconds(), calCPU+selfCPU()-cpu
		if sl < slices {
			sec.took = append(sec.took, phase(clients, -1, false, perClient(clients, perSlice), sl))
		}
	}
	if len(wl.bulk) > 0 {
		// Phase B: client 0 streams bulk bodies, the others keep the mix going.
		count := func(perSecond float64) int { return max(1, int(math.Round(perSecond*cfg.seconds))) }
		nB := perClient(clients, count(sz.besideOps))
		nB[0] = count(sz.bulkOps)
		phase(clients, 0, true, nB, 0)
	}
	wall := time.Since(start).Seconds() - calWall
	dcpu1, ccpu1 := procCPU(d.pid()), selfCPU()-calCPU
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}

	timed := timedOps(clients, marks)
	res.Attempted += countOps(clients)
	endToEnd(m, wl, timed, &sec)
	if cfg.trace {
		daemonLayers(m, timed, preKill, before, after)
		m["vnfoptd.cpu_s"] = dcpu1 - dcpu0
		if n := len(timed); n > 0 {
			m["vnfoptd.cpu_ms_per_op"] = (dcpu1 - dcpu0) * 1000 / float64(n)
		}
		m["vnfoptd.rss_peak_mb"] = procPeakRSS(d.pid())
		m["client.cpu_share"] = (ccpu1 - ccpu0) / wall
		m["client.timed_s"] = wall
	}

	// Final daemon-side state for the oracle, then the daemon can go.
	finals := make([][]byte, len(wl.scenarios))
	routings := make([][]byte, len(wl.scenarios))
	for i := range wl.scenarios {
		id := wl.scenarios[i].ID
		status, body, err := check.do(getRequest("/v1/scenarios/" + id + "/state"))
		if err != nil || status != http.StatusOK {
			res.fail("%s: GET state: status %d %v", id, status, err)
			continue
		}
		finals[i] = body
		if wl.scenarios[i].Routing != nil {
			status, body, err := check.do(getRequest("/v1/scenarios/" + id + "/routing"))
			if err != nil || status != http.StatusOK {
				res.fail("%s: GET routing: status %d %v", id, status, err)
				continue
			}
			routings[i] = body
		}
	}
	d.kill()
	_ = os.RemoveAll(d.dir)
	d = nil

	reps, err := oracle(wl, clients, marks, finals, routings, res)
	if err != nil {
		return nil, err
	}
	var admitted, offered, cost, costRate float64
	for _, r := range reps {
		admitted, offered = admitted+r.admittedRate, offered+r.offeredRate
		cost, costRate = cost+r.cost, costRate+r.costRate
	}
	if costRate > 0 {
		m["cost_per_rate"] = cost / costRate
	}
	m["sfcroute.admitted_rate_share"] = 1
	if offered > 0 {
		m["sfcroute.admitted_rate_share"] = admitted / offered
	}
	if cfg.trace {
		if err := tracedLayers(cfg, wl, m); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pct(s, 0.5)
}

// timedOps flattens the ops of the timed section across clients.
func timedOps(clients []*client, marks []int) []done {
	var out []done
	for i, cl := range clients {
		out = append(out, cl.log[marks[i]:]...)
	}
	return out
}

func countOps(clients []*client) int {
	n := 0
	for _, cl := range clients {
		n += len(cl.log)
	}
	return n
}

// healthzP50 is the bare HTTP round trip: the floor under every latency.
func healthzP50(c *conn) float64 {
	req := getRequest("/healthz")
	ns := make([]int64, 0, 200)
	for i := 0; i < 200; i++ {
		t := time.Now()
		if _, _, err := c.do(req); err != nil {
			return 0
		}
		ns = append(ns, int64(time.Since(t)))
	}
	return pct(msSorted(ns), 0.5)
}

// slices is how many equal parts phase A of the timed section is cut into.
const slices = 16

// timedSection is phase A of the timed section, slice by slice.
type timedSection struct {
	speed []float64         // host speed read before slice i; one more after the last
	took  [][]time.Duration // [slice][client]: how long the client's ops of the slice took
}

// at is the host speed slice sl ran at: the geometric mean of the readings
// at its two ends.
func (t *timedSection) at(sl int) float64 { return math.Sqrt(t.speed[sl] * t.speed[sl+1]) }

// endToEnd derives the user-visible metrics from the timed ops. Phase-B
// ops (beside a bulk stream) are interference measurements and reported
// per layer, not here. Gated timings are calibrated — each op's latency
// and each slice's elapsed time divided by the host speed of its slice;
// the client.* diagnostics are as the clock read them.
//
// A latency percentile is taken per client and the clients' values are
// averaged: each client drives its own scenarios, whose ops need not cost
// the same, and the percentile of a merged two-humped sample jumps between
// the humps from run to run where the mean of two percentiles does not.
func endToEnd(m map[string]float64, wl *workload, timed []done, sec *timedSection) {
	n := len(wl.clients)
	react, reactRaw, read := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	for i := range timed {
		d := &timed[i]
		if d.failed || d.phaseB {
			continue
		}
		if d.o.kind == opRead {
			read[d.client] = append(read[d.client], float64(d.read)/1e6)
			continue
		}
		ms := float64(d.post+d.read) / 1e6
		react[d.client] = append(react[d.client], ms/sec.at(d.slice))
		reactRaw[d.client] = append(reactRaw[d.client], ms)
		if wl.visible {
			read[d.client] = append(read[d.client], float64(d.read)/1e6)
		}
	}
	for _, s := range [][][]float64{react, reactRaw, read} {
		for _, c := range s {
			sort.Float64s(c)
		}
	}
	m["react_p50_ms"] = clientMean(react, 0.5)
	m["client.react_p50_raw_ms"] = clientMean(reactRaw, 0.5)
	m["client.react_p90_ms"] = clientMean(reactRaw, 0.9)
	m["client.read_p50_ms"] = clientMean(read, 0.5)
	m["client.read_p90_ms"] = clientMean(read, 0.9)
	// Each closed-loop client contributes its own completion rate.
	var speeds []float64
	for sl := range sec.took {
		speeds = append(speeds, sec.at(sl))
	}
	m["client.host_speed"] = median(speeds)
	for c := range react {
		var took, tookRaw float64
		for sl := range sec.took {
			took += sec.took[sl][c].Seconds() / sec.at(sl)
			tookRaw += sec.took[sl][c].Seconds()
		}
		m["reacts_per_s"] += float64(len(react[c])) / took
		m["client.reacts_per_s_raw"] += float64(len(react[c])) / tookRaw
	}
	tail := func(name string, samples [][]float64) {
		var all []float64
		for _, s := range samples {
			all = append(all, s...)
		}
		sort.Float64s(all)
		hi := highestPercentile(len(all))
		m["client."+name+"_hi_ms"], m["client."+name+"_hi_pct"], m["client."+name+"_n"] = pct(all, hi), hi*100, float64(len(all))
	}
	tail("react", reactRaw)
	tail("read", read)
}

// clientMean averages the q-quantile of each client's sorted samples.
func clientMean(samples [][]float64, q float64) float64 {
	sum, n := 0.0, 0
	for _, s := range samples {
		if len(s) > 0 {
			sum += pct(s, q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
