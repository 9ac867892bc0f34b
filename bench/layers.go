package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/fault"
	"vnfopt/internal/model"
	"vnfopt/internal/sfcroute"
	"vnfopt/internal/shard"
	"vnfopt/internal/wal"
)

const routePrefix = `route="`

// routeFilters are the per-route series the scraper keeps apart.
var routeFilters = map[string][]string{
	"vnfoptd_request_seconds_sum": {
		routePrefix + `POST /v1/scenarios"`,
		routePrefix + `POST /v1/scenarios/{id}/rates"`,
		routePrefix + `POST /v1/scenarios/{id}/rates:bulk"`,
		routePrefix + `POST /v1/scenarios/{id}/faults"`,
		routePrefix + `GET /v1/scenarios/{id}/placement"`,
	},
}

// daemonLayers fills the per-layer metrics read from outside the daemon:
// its own /metrics (delta over the timed section, or the value at the end
// of set-up for work only set-up does) and fields of its responses.
func daemonLayers(m map[string]float64, timed []done, setup, before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	route := func(r string) string { return "vnfoptd_request_seconds_sum|" + routePrefix + r + `"` }

	m["vnfoptd.req_s.rates"] = delta(route("POST /v1/scenarios/{id}/rates"))
	m["vnfoptd.req_s.bulk"] = delta(route("POST /v1/scenarios/{id}/rates:bulk"))
	m["vnfoptd.req_s.faults"] = delta(route("POST /v1/scenarios/{id}/faults"))
	m["vnfoptd.req_s.placement"] = delta(route("GET /v1/scenarios/{id}/placement"))
	m["vnfoptd.req_s.create"] = setup[route("POST /v1/scenarios")]
	m["vnfoptd.mailbox_rejected"] = delta("vnfoptd_mailbox_rejected_total")

	m["wal.append_s"] = delta("vnfopt_wal_append_seconds_sum")
	m["wal.records"] = delta("vnfopt_wal_records_total")
	m["wal.bytes"] = delta("vnfopt_wal_appended_bytes_total")
	m["wal.fsyncs"] = delta("vnfopt_wal_fsyncs_total")
	m["wal.replayed_records"] = before["vnfopt_wal_replayed_records_total"]
	m["wal.segments"] = after["vnfopt_wal_segments"]

	m["engine.epoch_s"] = delta("vnfopt_engine_epoch_seconds_sum")
	m["engine.epochs"] = delta("vnfopt_engine_epochs_total")
	m["engine.consults"] = delta("vnfopt_engine_consults_total")
	m["engine.migrations"] = delta("vnfopt_engine_migrations_total")
	m["engine.moves"] = delta("vnfopt_engine_moves_total")
	m["engine.updates"] = delta("vnfopt_engine_updates_total")
	m["engine.coalesced"] = delta("vnfopt_engine_updates_coalesced_total")
	if u := m["engine.updates"]; u > 0 {
		m["wal.bytes_per_update"] = m["wal.bytes"] / u
	}

	m["model.cache_rebuilds"] = delta("vnfopt_cache_rebuilds_total")
	m["model.cache_rebuild_s"] = delta("vnfopt_cache_rebuild_seconds_sum")
	m["model.cache_deltas"] = delta("vnfopt_cache_deltas_total")

	m["migration.consult_s"] = delta("vnfopt_migrator_seconds_sum")
	m["migration.consults"] = delta("vnfopt_migrator_calls_total")
	m["migration.moves"] = delta("vnfopt_migrator_moves_total")

	m["placement.place_s"] = setup["vnfopt_solver_seconds_sum"]
	m["placement.calls"] = setup["vnfopt_solver_calls_total"]
	m["graph.apsp_build_s"] = setup["vnfopt_apsp_build_seconds_sum"]
	m["graph.apsp_builds"] = setup["vnfopt_apsp_build_seconds_count"]
	m["graph.apsp_delta_s"] = delta("vnfopt_apsp_delta_seconds_sum")
	m["graph.apsp_deltas"] = delta("vnfopt_apsp_delta_seconds_count")
	m["graph.weight_deltas"] = delta("vnfopt_apsp_weight_deltas")
	m["graph.fault_deltas"] = delta("vnfopt_apsp_fault_deltas")

	// Response fields.
	var (
		overhead, stepNs, reactB, readB []int64
		bulkUpdates                     int
		bulkNs                          int64 // the bulk client is closed-loop: its posts add up to its elapsed time
		maxUtil                         float64
	)
	for i := range timed {
		d := &timed[i]
		m["vnfoptd.retries_429"] += float64(d.retries)
		if d.failed {
			continue
		}
		if d.phaseB {
			switch d.o.kind {
			case opRead:
				readB = append(readB, d.read)
			case opRates:
				reactB = append(reactB, d.post)
			case opBulk:
				bulkUpdates += len(d.o.updates)
				bulkNs += d.post
			}
		}
		if !d.o.step || d.raw == nil {
			continue
		}
		var ack struct {
			Step *engine.StepResult `json:"step"`
		}
		if json.Unmarshal(d.raw, &ack) != nil || ack.Step == nil {
			continue
		}
		stepNs = append(stepNs, int64(ack.Step.Elapsed))
		if d.o.kind == opRates {
			overhead = append(overhead, d.post-int64(ack.Step.Elapsed))
		}
		if ack.Step.Routing != nil {
			maxUtil = max(maxUtil, ack.Step.Routing.MaxLinkUtilization)
		}
	}
	m["vnfoptd.overhead_p50_ms"] = pct(msSorted(overhead), 0.5)
	m["engine.step_p50_ms"] = pct(msSorted(stepNs), 0.5)
	m["sfcroute.max_utilization"] = maxUtil
	m["client.react_p50_ms.bulk"] = pct(msSorted(reactB), 0.5)
	m["client.read_p50_ms.bulk"] = pct(msSorted(readB), 0.5)
	if bulkNs > 0 {
		m["vnfoptd.bulk_updates_per_s"] = float64(bulkUpdates) / (float64(bulkNs) / 1e9)
	}
}

// tracedLayers is the traced run: the first wl.traceOps ops of every
// client go through the layers' public entry points in daemon order with
// a span at each boundary, once with spans on and once off (the
// difference is the tracing overhead), then the layers that sit inside
// Engine.Step and cannot be bracketed from outside are replayed on their
// own against the same inputs.
func tracedLayers(cfg *runConfig, wl *workload, m map[string]float64) error {
	walDir := filepath.Join(cfg.outDir, "trace-wal-"+wl.name)
	defer os.RemoveAll(walDir)

	tr := newTracer(true)
	var dirty dirtyStats
	restore := hookAPSP(tr, &dirty)
	on, err := tracedReplay(wl, tr, walDir)
	restore()
	if err != nil {
		return err
	}
	// Spans off runs second, so whatever a first pass pays for cold caches
	// is charged to tracing, not credited to it.
	off, err := tracedReplay(wl, newTracer(false), walDir)
	if err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), wl.name, tr.spans); err != nil {
		return err
	}
	m["client.trace_ops"] = float64(tr.op)
	m["client.trace_overhead_pct"] = (on.Seconds() - off.Seconds()) / off.Seconds() * 100

	total, self := spanTimes(tr.spans)
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m["topology.build_s"] = sec(total["topology.build"])
	m["engine.new_s"] = sec(total["engine.new"])
	m["engine.ingest_s"] = sec(total["engine.ingest"])
	m["engine.step_s"] = sec(total["engine.step"])
	m["engine.step_self_s"] = sec(self["engine.step"])
	m["engine.apply_faults_s"] = sec(total["engine.apply_faults"])
	m["engine.apply_faults_self_s"] = sec(self["engine.apply_faults"])
	m["engine.marshal_state_s"] = sec(total["engine.marshal_state"])
	if dirty.deltas > 0 {
		m["graph.dirty_sources_mean"] = float64(dirty.sources) / float64(dirty.deltas)
		m["graph.dirty_share"] = float64(dirty.sources) / float64(dirty.vertices)
	}
	// Actor.Do's own cost per command: the hand-off and wake-up around
	// whatever ran inside.
	var doSelf []int64
	for i, s := range spanSelf(tr.spans) {
		if tr.spans[i].Name == "shard.do" {
			doSelf = append(doSelf, s)
		}
	}
	sort.Slice(doSelf, func(a, b int) bool { return doSelf[a] < doSelf[b] })
	if len(doSelf) > 0 {
		m["shard.do_p50_us"] = float64(doSelf[len(doSelf)/2]) / 1e3
	}
	m["shard.submit_ns"] = submitCost()

	if err := sideFaults(wl, m); err != nil {
		return err
	}
	if err := sideRouter(wl, m); err != nil {
		return err
	}
	if err := sideCommCost(wl, m); err != nil {
		return err
	}
	return sideWAL(wl, filepath.Join(cfg.outDir, "trace-walbench-"+wl.name), m)
}

// submitCost is the mean cost of one non-blocking Actor.Submit.
func submitCost() float64 {
	const n = 20000
	a := shard.NewActor(n)
	defer a.Close()
	noop := func() {}
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = a.Submit(noop) // capacity n: cannot be full
	}
	return float64(time.Since(start)) / n
}

// tracedPrefix calls fn for the ops of the traced prefix, per client.
func tracedPrefix(wl *workload, fn func(o *op) error) error {
	for _, ops := range wl.clients {
		for j := 0; j < wl.traceOps; j++ {
			if err := fn(&ops[j%len(ops)]); err != nil {
				return err
			}
		}
	}
	return nil
}

// sideFaults replays the traced prefix's topology events against
// fault.ApplyDelta and View.PlanService alone — the two calls
// Engine.ApplyFaults makes before the repair consult.
func sideFaults(wl *workload, m map[string]float64) error {
	var applyNs, planNs time.Duration
	type state struct {
		d    *model.PPDC
		w    model.Workload
		view *fault.View
		fs   fault.FaultSet
	}
	states := make(map[int]*state)
	err := tracedPrefix(wl, func(o *op) error {
		if o.kind != opFaults {
			return nil
		}
		st := states[o.sc]
		if st == nil {
			d, w, err := buildModel(&wl.scenarios[o.sc], nil)
			if err != nil {
				return err
			}
			st = &state{d: d, w: w}
			states[o.sc] = st
		}
		for _, f := range o.inject {
			st.fs = st.fs.Add(f)
		}
		for _, f := range o.heal {
			st.fs = st.fs.Remove(f)
		}
		t0 := time.Now()
		view, err := fault.ApplyDelta(st.d, st.view, st.fs)
		if err != nil {
			return fmt.Errorf("side replay: fault.ApplyDelta: %w", err)
		}
		t1 := time.Now()
		view.PlanService(st.w)
		planNs += time.Since(t1)
		applyNs += t1.Sub(t0)
		st.view = view
		if st.fs.Empty() {
			st.view = nil // the engine drops the view when the fabric is pristine again
		}
		return nil
	})
	m["fault.apply_delta_s"] = applyNs.Seconds()
	m["fault.plan_service_s"] = planNs.Seconds()
	return err
}

// sideRouter replays the traced prefix's epochs against a bench-owned
// sfcroute.Router: the same flows and rates, and the placement the engine
// committed each epoch, so BeginEpoch and Admit see what they see inside
// Engine.Step.
func sideRouter(wl *workload, m map[string]float64) error {
	var beginNs, admitNs time.Duration
	var admits, rejects, reroutes int
	type state struct {
		eng    *engine.Engine
		router *sfcroute.Router
		w      model.Workload
	}
	states := make(map[int]*state)
	pass := func(st *state) error {
		t0 := time.Now()
		if err := st.router.BeginEpoch(sfcroute.PlacementSites(st.eng.Snapshot().Placement)); err != nil {
			return err
		}
		t1 := time.Now()
		for _, f := range st.w {
			dec, err := st.router.Admit(f.Src, f.Dst, f.Rate)
			if err != nil {
				return err
			}
			if dec.Admitted {
				admits++
			} else {
				rejects++
			}
			reroutes += dec.Reroutes
		}
		admitNs += time.Since(t1)
		beginNs += t1.Sub(t0)
		return nil
	}
	err := tracedPrefix(wl, func(o *op) error {
		rc := wl.scenarios[o.sc].Routing
		if rc == nil || o.kind != opRates {
			return nil
		}
		st := states[o.sc]
		if st == nil {
			// The engine supplies the committed placements; its own route
			// pass runs too but is not what is timed here.
			eng, err := buildEngine(&wl.scenarios[o.sc], nil)
			if err != nil {
				return err
			}
			d, w, err := buildModel(&wl.scenarios[o.sc], nil)
			if err != nil {
				return err
			}
			router, err := sfcroute.NewRouter(d, sfcroute.Config{
				Capacity: rc.LinkCapacity, Alpha: rc.Alpha, MaxUtilization: rc.MaxUtilization, Classify: rc.Classify,
			})
			if err != nil {
				return err
			}
			st = &state{eng: eng, router: router, w: w}
			states[o.sc] = st
			if err := pass(st); err != nil { // the pass engine.New runs at epoch 0
				return err
			}
		}
		if _, err := st.eng.Ingest(o.updates); err != nil {
			return err
		}
		for _, u := range o.updates {
			st.w[u.Flow].Rate = u.Rate
		}
		if !o.step {
			return nil
		}
		if _, err := st.eng.Step(); err != nil {
			return err
		}
		return pass(st)
	})
	m["sfcroute.begin_epoch_s"] = beginNs.Seconds()
	m["sfcroute.admit_s"] = admitNs.Seconds()
	m["sfcroute.admits"] = float64(admits)
	m["sfcroute.rejects"] = float64(rejects)
	m["sfcroute.reroutes"] = float64(reroutes)
	return err
}

// sideCommCost times one WorkloadCache.CommCost, the call every drift
// check, consult candidate and repair candidate prices a placement with.
func sideCommCost(wl *workload, m map[string]float64) error {
	eng, err := buildEngine(&wl.scenarios[0], nil)
	if err != nil {
		return err
	}
	d, w, err := buildModel(&wl.scenarios[0], nil)
	if err != nil {
		return err
	}
	cache := d.NewWorkloadCache(w)
	p := eng.Snapshot().Placement
	const n = 2000
	sink := 0.0
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += cache.CommCost(p)
	}
	m["model.comm_cost_ns"] = float64(time.Since(start)) / n
	if sink < 0 {
		return fmt.Errorf("negative cost") // keeps the loop's result live
	}
	return nil
}

// sideWAL appends records of the workload's own typical size to a log on
// a temp dir under both fsync policies, then times their replay.
func sideWAL(wl *workload, dir string, m map[string]float64) error {
	defer os.RemoveAll(dir)
	// The median record the traced prefix would log.
	var sizes []int
	_ = tracedPrefix(wl, func(o *op) error {
		switch o.kind {
		case opRates:
			sizes = append(sizes, 4+12*len(o.updates))
		case opFaults:
			b, _ := json.Marshal(map[string]any{"inject": o.inject, "heal": o.heal})
			sizes = append(sizes, len(b))
		}
		return nil
	})
	sort.Ints(sizes)
	payload := make([]byte, sizes[len(sizes)/2])
	// Enough group-commit appends for a p99, but no more than 64 MiB of log.
	n := max(500, min(20000, (64<<20)/(len(payload)+1)))

	appendLat := func(policy wal.SyncPolicy, n int) ([]float64, *wal.Log, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		log, err := wal.Open(dir, wal.Options{Policy: policy})
		if err != nil {
			return nil, nil, err
		}
		us := make([]float64, n)
		for i := range us {
			t := time.Now()
			if _, err := log.Append(wal.TypeIngest, payload); err != nil {
				log.Close()
				return nil, nil, err
			}
			us[i] = float64(time.Since(t)) / 1e3
		}
		sort.Float64s(us)
		return us, log, nil
	}
	us, log, err := appendLat(wal.SyncAlways, 200)
	if err != nil {
		return err
	}
	log.Close()
	m["wal.append_p50_us.always"] = pct(us, 0.5)

	us, log, err = appendLat(wal.SyncInterval, n)
	if err != nil {
		return err
	}
	defer log.Close()
	m["wal.append_p50_us.interval"] = pct(us, 0.5)
	m["wal.append_p99_us.interval"] = pct(us, 0.99)
	start := time.Now()
	seen := 0
	if err := log.Replay(func(wal.Record) error { seen++; return nil }); err != nil {
		return err
	}
	m["wal.replay_records_per_s"] = float64(seen) / time.Since(start).Seconds()
	return nil
}
