package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; the smoke test fails when
// the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the daemon sees. Every workload
// reports every one of them, each defined by the workload's own reaction:
//
//   - a reaction on diurnal-react and flashcrowd-routed is POST …/rates
//     {…,"step":true} sent → 200 (WAL-durable, epoch closed, TOM consulted,
//     routed) → GET …/placement shows the acked epoch;
//   - on fault-storm it is POST …/faults sent → 200 with the repair result
//     → GET …/placement shows the new active_faults;
//   - on fleet-ingest it is a one-update POST …/rates → 200 (after the WAL
//     append), phase A only.
//
// The four timings are calibrated: what the clock read, divided by the
// host speed measured beside it (see calib.go). The client.*_raw metrics
// and client.host_speed carry the uncalibrated readings and the factor.
//
// The bounds: every timing gets the widest a bound may be. On the
// recording host ten runs of a calibrated timing spread (first to third
// quartile, over the median) 2 to 14 %, and up to 16 % on fleet-ingest,
// whose 0.1 ms ops are mostly cross-core wake-ups no reference kernel
// tracks (README.md has the table); every workload reports every metric,
// so a bound has to hold on the noisiest of them.
var endToEndMetrics = []metricDef{
	// spawn → /readyz → every scenario created → warm-up ops; median of
	// the run's set-up rounds; excludes go build.
	{"setup_s", "s", "lower", 0.25},
	// median reaction latency: each client's median, averaged.
	{"react_p50_ms", "ms", "lower", 0.25},
	// reactions completed per second of phase A, all clients.
	{"reacts_per_s", "1/s", "higher", 0.25},
	// Σ of the cost the daemon reports per reaction — StepResult.total_cost
	// (the paper's C_t) per epoch, the repair's C_t per fault event — over
	// Σ of the offered rate each one priced: what a unit of traffic pays,
	// in hops. It repeats exactly for a seed, so between two runs of one
	// seed any difference at all is a change in what the program decides;
	// the bound has to clear the 2.5 % by which it moves from seed to seed
	// on diurnal-react, the draw of tenant racks being part of the input.
	{"cost_per_rate", "cost/rate", "lower", 0.08},
	// SIGKILL → restart → /readyz 200: create replay (topology, APSP, TOP
	// placement) plus the warm-up's fixed WAL record count; median of the
	// run's rounds.
	{"recovery_s", "s", "lower", 0.25},
}

// perLayerMetrics attribute time and work to single layers; they carry no
// bound. Sources: M = delta of the daemon's /metrics over the timed
// section, S = the daemon's /metrics at the end of set-up, R = fields of
// API responses, P = /proc of the daemon or generator, T = the traced
// in-process replay of a fixed op prefix.
var perLayerMetrics = []metricDef{
	// vnfoptd: the HTTP front, busy time per route.
	{Name: "vnfoptd.req_s.rates", Unit: "s", Better: "lower"},           // M
	{Name: "vnfoptd.req_s.bulk", Unit: "s", Better: "lower"},            // M
	{Name: "vnfoptd.req_s.faults", Unit: "s", Better: "lower"},          // M
	{Name: "vnfoptd.req_s.placement", Unit: "s", Better: "lower"},       // M
	{Name: "vnfoptd.req_s.create", Unit: "s", Better: "lower"},          // S
	{Name: "vnfoptd.overhead_p50_ms", Unit: "ms", Better: "lower"},      // R: client latency − elapsed_ns
	{Name: "vnfoptd.retries_429", Unit: "count", Better: "lower"},       // client-side
	{Name: "vnfoptd.mailbox_rejected", Unit: "count", Better: "lower"},  // M
	{Name: "vnfoptd.cpu_s", Unit: "s", Better: "lower"},                 // P
	{Name: "vnfoptd.cpu_ms_per_op", Unit: "ms", Better: "lower"},        // P
	{Name: "vnfoptd.rss_peak_mb", Unit: "MiB", Better: "lower"},         // P
	{Name: "vnfoptd.healthz_p50_ms", Unit: "ms", Better: "lower"},       // bare HTTP round trip
	{Name: "vnfoptd.bulk_updates_per_s", Unit: "1/s", Better: "higher"}, // fleet-ingest phase B
	// shard
	{Name: "shard.do_p50_us", Unit: "us", Better: "lower"}, // T: Actor.Do spans minus their children
	{Name: "shard.submit_ns", Unit: "ns", Better: "lower"}, // T: one Submit, empty command
	// wal
	{Name: "wal.append_s", Unit: "s", Better: "lower"},                // M
	{Name: "wal.records", Unit: "count", Better: "lower"},             // M
	{Name: "wal.bytes", Unit: "count", Better: "lower"},               // M
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},              // M
	{Name: "wal.bytes_per_update", Unit: "count", Better: "lower"},    // M
	{Name: "wal.replayed_records", Unit: "count", Better: "lower"},    // S: after recovery
	{Name: "wal.segments", Unit: "count", Better: "lower"},            // M (gauge at the end)
	{Name: "wal.append_p50_us.always", Unit: "us", Better: "lower"},   // T
	{Name: "wal.append_p50_us.interval", Unit: "us", Better: "lower"}, // T
	{Name: "wal.append_p99_us.interval", Unit: "us", Better: "lower"}, // T
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher"}, // T
	// engine
	{Name: "engine.epoch_s", Unit: "s", Better: "lower"},             // M
	{Name: "engine.epochs", Unit: "count", Better: "higher"},         // M
	{Name: "engine.consults", Unit: "count", Better: "lower"},        // M
	{Name: "engine.migrations", Unit: "count", Better: "lower"},      // M
	{Name: "engine.moves", Unit: "count", Better: "lower"},           // M
	{Name: "engine.updates", Unit: "count", Better: "higher"},        // M
	{Name: "engine.coalesced", Unit: "count", Better: "higher"},      // M
	{Name: "engine.step_p50_ms", Unit: "ms", Better: "lower"},        // R: StepResult.elapsed_ns
	{Name: "engine.new_s", Unit: "s", Better: "lower"},               // T
	{Name: "engine.ingest_s", Unit: "s", Better: "lower"},            // T
	{Name: "engine.step_s", Unit: "s", Better: "lower"},              // T
	{Name: "engine.step_self_s", Unit: "s", Better: "lower"},         // T
	{Name: "engine.apply_faults_s", Unit: "s", Better: "lower"},      // T
	{Name: "engine.apply_faults_self_s", Unit: "s", Better: "lower"}, // T
	{Name: "engine.marshal_state_s", Unit: "s", Better: "lower"},     // T
	// model
	{Name: "model.cache_rebuilds", Unit: "count", Better: "lower"}, // M
	{Name: "model.cache_rebuild_s", Unit: "s", Better: "lower"},    // M
	{Name: "model.cache_deltas", Unit: "count", Better: "lower"},   // M
	{Name: "model.comm_cost_ns", Unit: "ns", Better: "lower"},      // T: one WorkloadCache.CommCost
	// migration
	{Name: "migration.consult_s", Unit: "s", Better: "lower"},    // M
	{Name: "migration.consults", Unit: "count", Better: "lower"}, // M
	{Name: "migration.moves", Unit: "count", Better: "lower"},    // M
	// placement
	{Name: "placement.place_s", Unit: "s", Better: "lower"},   // S
	{Name: "placement.calls", Unit: "count", Better: "lower"}, // S
	// graph
	{Name: "graph.apsp_build_s", Unit: "s", Better: "lower"},           // S
	{Name: "graph.apsp_builds", Unit: "count", Better: "lower"},        // S
	{Name: "graph.apsp_delta_s", Unit: "s", Better: "lower"},           // M
	{Name: "graph.apsp_deltas", Unit: "count", Better: "lower"},        // M
	{Name: "graph.weight_deltas", Unit: "count", Better: "lower"},      // M
	{Name: "graph.fault_deltas", Unit: "count", Better: "lower"},       // M
	{Name: "graph.dirty_sources_mean", Unit: "count", Better: "lower"}, // T
	{Name: "graph.dirty_share", Unit: "ratio", Better: "lower"},        // T: dirty ÷ vertices, the wasted-work ratio
	// fault
	{Name: "fault.apply_delta_s", Unit: "s", Better: "lower"},  // T
	{Name: "fault.plan_service_s", Unit: "s", Better: "lower"}, // T
	// sfcroute
	{Name: "sfcroute.begin_epoch_s", Unit: "s", Better: "lower"},       // T
	{Name: "sfcroute.admit_s", Unit: "s", Better: "lower"},             // T
	{Name: "sfcroute.admits", Unit: "count", Better: "higher"},         // T
	{Name: "sfcroute.max_utilization", Unit: "ratio", Better: "lower"}, // R
	// Not exercised: no workload can overflow a link until Router.Admit
	// breaks ties deterministically (see crowdCapacity), so these read 0, 0
	// and 1 everywhere and cannot show a regression in admission.
	{Name: "sfcroute.rejects", Unit: "count", Better: "lower"},              // T
	{Name: "sfcroute.reroutes", Unit: "count", Better: "lower"},             // T
	{Name: "sfcroute.admitted_rate_share", Unit: "ratio", Better: "higher"}, // R: Σ admitted ÷ Σ offered rate over every route pass; 1 where routing is off
	// topology
	{Name: "topology.build_s", Unit: "s", Better: "lower"}, // T
	// client: the generator's own diagnostics.
	{Name: "client.cpu_share", Unit: "cores", Better: "lower"}, // P
	{Name: "client.timed_s", Unit: "s", Better: "lower"},       // how long the fixed op count took: about -seconds on the recording host
	// The calibration: the median host speed over phase A's slices (1 =
	// nominal, 1.3 = the reference kernels ran 30 % slow), and the gated
	// timings as the clock read them.
	{Name: "client.host_speed", Unit: "ratio", Better: "lower"},
	{Name: "client.setup_raw_s", Unit: "s", Better: "lower"},
	{Name: "client.react_p50_raw_ms", Unit: "ms", Better: "lower"},
	{Name: "client.reacts_per_s_raw", Unit: "1/s", Better: "higher"},
	{Name: "client.recovery_raw_s", Unit: "s", Better: "lower"},
	{Name: "client.react_hi_ms", Unit: "ms", Better: "lower"}, // highest percentile with ≥10 samples beyond it
	{Name: "client.react_hi_pct", Unit: "%", Better: "higher"},
	{Name: "client.react_n", Unit: "count", Better: "higher"},
	{Name: "client.read_hi_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_hi_pct", Unit: "%", Better: "higher"},
	{Name: "client.read_n", Unit: "count", Better: "higher"},
	// Demoted from the gated list: their run-to-run spread on the recording
	// host reaches the widest bound a metric may have. read is GET
	// …/placement: each reaction's visibility read, or the reads mixed
	// beside the writes on fleet-ingest.
	{Name: "client.react_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.react_p50_ms.bulk", Unit: "ms", Better: "lower"}, // phase-B interference
	{Name: "client.read_p50_ms.bulk", Unit: "ms", Better: "lower"},
	{Name: "client.trace_ops", Unit: "count", Better: "higher"},     // ops the T metrics sum over
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"}, // replay with spans on vs off
}

// workloadWhy is the one-line reason each workload exists, as recorded in
// BENCHMARK.json.
var workloadWhy = map[string]string{
	"diurnal-react":     "paper's hourly diurnal dynamic: full 2000-flow rate vector + step per op, TOM every epoch, no routing; control plane (62 KB decode, 24 KB WAL record, cache rebuild) is over half the reaction",
	"flashcrowd-routed": "sparse rack flash crowd with capacity routing on: the per-flow layered-graph route pass is nearly the whole epoch, HTTP and WAL negligible; a control-plane change must show no change here",
	"fault-storm":       "one link/degrade/switch/host event per op on a k=16 fat-tree: structural and weight APSP deltas plus repair migration dominate; k=16 create makes setup_s and recovery_s feel APSP build",
	"fleet-ingest":      "64 tiny scenarios, no migration, group-commit WAL: one-update writes beside reads, then NDJSON bulk; engine idle, so HTTP decode, mailbox hand-off and WAL append are the work",
}
