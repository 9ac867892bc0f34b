package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/failfs"
	"vnfopt/internal/fault"
	"vnfopt/internal/graph"
	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/obs"
	"vnfopt/internal/placement"
	"vnfopt/internal/shard"
	"vnfopt/internal/stroll"
	"vnfopt/internal/topology"
	"vnfopt/internal/wal"
	"vnfopt/internal/workload"
)

// PairSpec is one explicit flow of a scenario: host *indices* into the
// fabric's host list (not raw vertex ids), plus the initial rate.
type PairSpec struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Rate float64 `json:"rate"`
}

// ScenarioSpec is the POST /v1/scenarios request body. Flows come either
// explicitly (Pairs) or generated (Flows/TenantRacks/Seed); State resumes
// a previously captured engine state on top of the same spec.
type ScenarioSpec struct {
	// ID optionally names the scenario; it must be unique among live
	// scenarios (409 conflict otherwise). Empty lets the server assign
	// s1, s2, …
	ID string `json:"id,omitempty"`
	// Name is an optional label echoed in listings and metrics.
	Name string `json:"name"`
	// Topology is "fat-tree" (default) or "leaf-spine".
	Topology string `json:"topology"`
	// K is the fat-tree arity (default 4).
	K int `json:"k"`
	// Leaves/Spines/HostsPerLeaf shape a leaf-spine fabric (defaults 4/2/4).
	Leaves       int `json:"leaves"`
	Spines       int `json:"spines"`
	HostsPerLeaf int `json:"hosts_per_leaf"`
	// SFCLen is the chain length n (default 3).
	SFCLen int `json:"sfc_len"`
	// Mu is the migration coefficient μ (default 1000).
	Mu float64 `json:"mu"`
	// Pairs are explicit flows; when empty, Flows/TenantRacks/Seed
	// generate a clustered workload.
	Pairs       []PairSpec `json:"pairs"`
	Flows       int        `json:"flows"`
	TenantRacks int        `json:"tenant_racks"`
	Seed        int64      `json:"seed"`
	// Migrator is "mpareto" (default), "exhaustive" (Algorithm 6 seeded
	// with mPareto — exact, small fabrics only), or "nomigration".
	Migrator string `json:"migrator"`
	// NodeBudget caps the exhaustive migrator's search expansions per
	// consult. 0 picks a safe daemon default (500000); < 0 means
	// unlimited (the search can then take O(|V|^n) time — lab use only).
	NodeBudget int `json:"node_budget,omitempty"`
	// Policy holds the drift/cooldown/budget knobs.
	Policy engine.Policy `json:"policy"`
	// Routing, when set, enables the capacity-aware SFC routing pass:
	// every epoch re-routes the served flows through the committed chain
	// against link capacity, reported at GET /v1/scenarios/{id}/routing
	// and via the vnfopt_sfcroute_* / vnfopt_link_utilization metrics.
	Routing *engine.RoutingConfig `json:"routing,omitempty"`
	// State, when set, resumes a scenario from a saved engine state.
	State json.RawMessage `json:"state,omitempty"`
}

// buildEngine materializes a spec into a running engine. reg and o may
// be nil, disabling solver/engine instrumentation respectively.
func buildEngine(spec *ScenarioSpec, reg *obs.Registry, o *engine.Observer) (*engine.Engine, error) {
	if spec.Topology == "" {
		spec.Topology = "fat-tree"
	}
	var (
		topo *topology.Topology
		err  error
	)
	switch spec.Topology {
	case "fat-tree":
		if spec.K == 0 {
			spec.K = 4
		}
		topo, err = topology.FatTree(spec.K, nil)
	case "leaf-spine":
		if spec.Leaves == 0 {
			spec.Leaves = 4
		}
		if spec.Spines == 0 {
			spec.Spines = 2
		}
		if spec.HostsPerLeaf == 0 {
			spec.HostsPerLeaf = 4
		}
		topo, err = topology.LeafSpine(spec.Leaves, spec.Spines, spec.HostsPerLeaf, nil)
	default:
		return nil, fmt.Errorf("unknown topology %q (want fat-tree or leaf-spine)", spec.Topology)
	}
	if err != nil {
		return nil, err
	}
	d, err := model.New(topo, model.Options{})
	if err != nil {
		return nil, err
	}

	var base model.Workload
	if len(spec.Pairs) > 0 {
		hosts := topo.Hosts
		base = make(model.Workload, len(spec.Pairs))
		for i, p := range spec.Pairs {
			if p.Src < 0 || p.Src >= len(hosts) || p.Dst < 0 || p.Dst >= len(hosts) {
				return nil, fmt.Errorf("pair %d: host index out of range [0,%d)", i, len(hosts))
			}
			base[i] = model.VMPair{Src: hosts[p.Src], Dst: hosts[p.Dst], Rate: p.Rate}
		}
	} else {
		if spec.Flows == 0 {
			spec.Flows = 50
		}
		if spec.TenantRacks == 0 {
			spec.TenantRacks = 4
		}
		rng := rand.New(rand.NewSource(spec.Seed))
		base, err = workload.PairsClustered(topo, spec.Flows, spec.TenantRacks, workload.DefaultIntraRack, rng)
		if err != nil {
			return nil, err
		}
		for i := range base {
			base[i].Rate = workload.Rate(rng)
		}
	}

	if spec.SFCLen == 0 {
		spec.SFCLen = 3
	}
	if spec.Mu == 0 {
		spec.Mu = 1000
	}
	var mig migration.Migrator
	switch strings.ToLower(spec.Migrator) {
	case "", "mpareto":
		spec.Migrator = "mpareto"
		mig = migration.MPareto{}
	case "exhaustive":
		budget := spec.NodeBudget
		switch {
		case budget == 0:
			budget = 500_000 // bound a live daemon's consult latency by default
		case budget < 0:
			budget = 0 // explicit opt-in to an unlimited search
		}
		mig = migration.Exhaustive{NodeBudget: budget, Seed: migration.MPareto{}}
	case "nomigration":
		mig = migration.NoMigration{}
	default:
		return nil, fmt.Errorf("unknown migrator %q (want mpareto, exhaustive, or nomigration)", spec.Migrator)
	}

	var placer placement.Solver = placement.DP{}
	if reg != nil {
		// Solver-level wrappers: every TOP/TOM call is timed under a
		// per-algorithm label, independent of which scenario made it.
		placer = obs.InstrumentedSolver{Inner: placer, M: obs.NewSolverMetrics(reg, placer.Name())}
		mig = obs.InstrumentedMigrator{Inner: mig, M: obs.NewMigratorMetrics(reg, mig.Name())}
	}
	cfg := engine.Config{
		PPDC:     d,
		SFC:      model.NewSFC(spec.SFCLen),
		Base:     base,
		Mu:       spec.Mu,
		Placer:   placer,
		Migrator: mig,
		Policy:   spec.Policy,
		Routing:  spec.Routing,
		Observer: o,
	}
	if len(spec.State) > 0 {
		return engine.ResumeJSON(cfg, spec.State)
	}
	return engine.New(cfg)
}

// scenario is one hosted engine plus the actor that owns it: every
// mutating call (ingest, step, faults, state reads that must order
// after queued writes) is a command in the actor's bounded mailbox,
// executed by the scenario's run loop. Snapshot reads bypass the actor
// entirely via the engine's lock-free atomic pointer.
type scenario struct {
	ID      string        `json:"id"`
	Spec    *ScenarioSpec `json:"spec"`
	Created time.Time     `json:"created"`

	eng    *engine.Engine
	events *obs.EventLog
	actor  *shard.Actor

	// wal is the scenario's write-ahead log (nil with -wal unset). dirty
	// says the log has grown since its last create or checkpoint record,
	// owed that a checkpoint round found the engine between epochs and the
	// next epoch boundary takes the checkpoint; both are touched only from
	// the actor, or before the scenario is published.
	wal   *wal.Log
	dirty bool
	owed  bool
	reg   *obs.Registry
	log   *slog.Logger
}

// status classifies the scenario for the list filter.
func (sc *scenario) status() string {
	if sc.eng.Snapshot().Degraded {
		return "degraded"
	}
	return "active"
}

// defaultMailboxCap bounds each scenario's command queue: deep enough
// that bulk ingest pipelines batches ahead of the run loop, shallow
// enough that a stuck consumer surfaces as 429 backpressure instead of
// unbounded memory.
const defaultMailboxCap = 1024

// server is the vnfoptd control plane: a copy-on-write registry of
// scenario shards behind an HTTP/JSON API, plus the process-wide
// metrics registry every scenario publishes into. Request-path lookups
// (Get/Range) never take a lock; createMu serializes only scenario
// creation (id assignment + duplicate check).
type server struct {
	scenarios *shard.Map[*scenario]

	createMu sync.Mutex
	nextID   int // guarded by createMu

	start      time.Time
	mailboxCap int

	// fs is the filesystem seam for everything durable. Production uses
	// failfs.OS; the crash-injection suite swaps in a failfs.Faulty.
	fs failfs.FS
	// walDir is the WAL root ("" = durability off); each scenario logs
	// under walDir/<escaped-id>/. walOpts carries the fsync policy and
	// segment size for every scenario log.
	walDir     string
	walOpts    wal.Options
	walMetrics *wal.Metrics
	// recovering gates /v1 and /readyz while the boot-time WAL replay
	// runs; cleared by recoverState, which then sets recoverySeconds to
	// the replay's wall time.
	recovering      atomic.Bool
	recoverySeconds *obs.Gauge

	reg      *obs.Registry
	rejected *obs.Counter // mailbox-full 429s
	// decodeRates / decodeBulk time reading and decoding a request's
	// updates on the two ingest routes, before the mailbox.
	decodeRates, decodeBulk *obs.Histogram

	log       *slog.Logger
	pprofOpen bool
}

func newServer() *server {
	s := &server{
		scenarios:  shard.NewMap[*scenario](),
		start:      time.Now(),
		mailboxCap: defaultMailboxCap,
		fs:         failfs.OS,
		reg:        obs.NewRegistry(),
		log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s.walMetrics = wal.NewMetrics(s.reg)
	s.rejected = s.reg.Counter("vnfoptd_mailbox_rejected_total")
	s.recoverySeconds = s.reg.Gauge("vnfoptd_recovery_seconds")
	s.decodeRates = s.reg.Histogram(`vnfoptd_decode_seconds{route="POST /v1/scenarios/{id}/rates"}`)
	s.decodeBulk = s.reg.Histogram(`vnfoptd_decode_seconds{route="POST /v1/scenarios/{id}/rates:bulk"}`)
	s.reg.GaugeFunc("vnfoptd_uptime_seconds", func() float64 {
		return time.Since(s.start).Seconds()
	})
	s.reg.GaugeFunc("vnfoptd_scenarios", func() float64 {
		return float64(s.scenarios.Len())
	})
	// Aggregate mailbox depth across every scenario shard: per-scenario
	// depth series would multiply cardinality by the fleet size, and the
	// signal that matters operationally is "is the control plane keeping
	// up" — the sum.
	s.reg.GaugeFunc("vnfoptd_mailbox_depth", func() float64 {
		depth := 0
		s.scenarios.Range(func(_ string, sc *scenario) bool {
			depth += sc.actor.Depth()
			return true
		})
		return float64(depth)
	})
	// Process-wide search effort: the branch-and-bound engines batch their
	// expansion counts into package totals; publish them as callback
	// gauges so exposition always reads the live value.
	s.reg.GaugeFunc(`vnfopt_search_expansions_total{search="stroll"}`, func() float64 {
		return float64(stroll.SearchExpansions())
	})
	s.reg.GaugeFunc(`vnfopt_search_expansions_total{search="placement"}`, func() float64 {
		return float64(placement.SearchExpansions())
	})
	s.reg.GaugeFunc(`vnfopt_search_expansions_total{search="migration"}`, func() float64 {
		return float64(migration.SearchExpansions())
	})
	// APSP rows are built on first read: the build histogram times each
	// batch of rows built, wherever the read lands, and the gauge holds
	// the matrix order. A delta reports its wall time, the rows it changed
	// (repaired into tables of their own, or built in the parent and left
	// unbuilt) and its kind: fault (inject/heal), weight (degrade), both.
	apsp := s.reg.Histogram("vnfopt_apsp_build_seconds")
	apspVerts := s.reg.Gauge("vnfopt_apsp_vertices")
	graph.SetAPSPObserver(func(vertices, edges, workers int, elapsed time.Duration) {
		apsp.Observe(elapsed.Seconds())
		apspVerts.Set(float64(vertices))
	})
	apspDelta := s.reg.Histogram("vnfopt_apsp_delta_seconds")
	apspDirty := s.reg.Gauge("vnfopt_apsp_dirty_sources")
	apspFaultDeltas := s.reg.Counter("vnfopt_apsp_fault_deltas")
	apspWeightDeltas := s.reg.Counter("vnfopt_apsp_weight_deltas")
	graph.SetAPSPDeltaObserver(func(kind graph.DeltaKind, vertices, dirty, workers int, elapsed time.Duration) {
		apspDelta.Observe(elapsed.Seconds())
		apspDirty.Set(float64(dirty))
		switch kind {
		case graph.DeltaWeight:
			apspWeightDeltas.Inc()
		case graph.DeltaFault:
			apspFaultDeltas.Inc()
		case graph.DeltaMixed:
			// A mixed transition is both.
			apspWeightDeltas.Inc()
			apspFaultDeltas.Inc()
		}
	})
	return s
}

// newScenario is the shell of scenario id: an actor running, no engine
// yet — its createCmd installs one. A panic escaping a command is
// contained by the actor; it is logged and counted here so it stays
// visible.
func (s *server) newScenario(id string) *scenario {
	sc := &scenario{
		ID: id, Created: time.Now(),
		actor: shard.NewActor(s.mailboxCap),
		reg:   s.reg,
		log:   s.log,
	}
	panics := s.reg.Counter("vnfoptd_actor_panics_total")
	sc.actor.OnPanic = func(v any) {
		panics.Inc()
		s.log.Error("scenario command panicked", slog.String("scenario", id), slog.Any("panic", v))
	}
	return sc
}

// create builds scenario id from spec and logs its create record,
// leaving it unpublished: live create and the legacy import share it.
// The engine is built before the log is opened, so a refused spec
// writes nothing. A failure drops the metric series and, as far as the
// filesystem lets it, the log directory; the next boot drops a husk
// with no record in it.
func (s *server) create(id string, spec *ScenarioSpec) (*scenario, error) {
	sc, c := s.newScenario(id), &createCmd{id: id, spec: spec}
	err := c.validate(sc)
	if err != nil {
		err = refused{err}
	} else if sc.wal, err = s.openScenarioWAL(id); err != nil {
		err = fmt.Errorf("scenario %q: wal: %w", id, err)
		_ = s.dropWALDir(id)
	} else if err = sc.run(c); err != nil {
		sc.wal.Close() // only the append can fail
		_ = s.dropWALDir(id)
	}
	if err != nil {
		sc.actor.Close()
		s.dropSeries(id)
		return nil, err
	}
	return sc, nil
}

// dropSeries retires the metric series engine.NewObserver registered
// for a scenario (it labels every one `{scenario="<id>"}`), so /metrics
// stops reporting a scenario that is gone and a later scenario of the
// same id counts from zero.
func (s *server) dropSeries(id string) {
	s.reg.DropLabels(fmt.Sprintf("{scenario=%q}", id))
}

// handler builds the route table (Go 1.22 pattern mux). Every route is
// wrapped in the request middleware (metrics + structured log); the /v1
// surface is additionally gated on boot-time recovery — until every WAL
// is replayed, scenario state is incomplete and nothing may read or
// (worse) mutate it.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	gated := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if s.recovering.Load() {
				w.Header().Set("Retry-After", "1")
				writeError(w, codeUnavailable, "server is recovering (wal replay in progress)")
				return
			}
			h(w, r)
		}
	}
	route("GET /healthz", s.handleHealth)
	route("GET /readyz", s.handleReady)
	route("GET /metrics", s.handleMetrics)
	route("POST /v1/scenarios", gated(s.handleCreate))
	route("GET /v1/scenarios", gated(s.handleList))
	route("DELETE /v1/scenarios/{id}", gated(s.handleDelete))
	route("POST /v1/scenarios/{id}/rates", gated(s.handleRates))
	route("POST /v1/scenarios/{id}/rates:bulk", gated(s.handleRatesBulk))
	route("POST /v1/scenarios/{id}/step", gated(s.handleStep))
	route("POST /v1/scenarios/{id}/faults", gated(s.handleFaults))
	route("GET /v1/scenarios/{id}/faults", gated(s.handleFaultsGet))
	route("GET /v1/scenarios/{id}/placement", gated(s.handlePlacement))
	route("GET /v1/scenarios/{id}/routing", gated(s.handleRouting))
	route("GET /v1/scenarios/{id}/state", gated(s.handleState))
	route("GET /v1/scenarios/{id}/metrics", gated(s.handleScenarioMetrics))
	route("GET /v1/scenarios/{id}/events", gated(s.handleEvents))
	if s.pprofOpen {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// get resolves a scenario id lock-free.
func (s *server) get(id string) *scenario {
	sc, _ := s.scenarios.Get(id)
	return sc
}

// maxBodyBytes bounds every non-streaming JSON request body: a
// well-formed request is a few KB (rate batches scale with flow count,
// never past a few MB), so 8 MiB rejects pathological bodies before the
// decoder buffers them. The NDJSON bulk path is exempt — it streams
// line by line with a per-line bound instead of a body bound.
const maxBodyBytes = 8 << 20

// decodeStrict decodes the one JSON value a create or faults body is
// into v: bounded by maxBodyBytes, no unknown field, and nothing but
// white space after the value (Decode alone stops at the first value and
// would drop the rest unread).
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec ScenarioSpec
	if err := decodeStrict(w, r, &spec); err != nil {
		writeError(w, codeBadRequest, "bad scenario spec: %v", err)
		return
	}
	// The whole create — id assignment, engine build, insert — runs
	// under createMu, so two concurrent creates with the same explicit
	// id cannot both pass the duplicate check. Creates are rare;
	// serializing them costs nothing, and unlike the old server-wide
	// RWMutex it blocks no lookup: Get/Range read the copy-on-write
	// registry lock-free throughout.
	s.createMu.Lock()
	defer s.createMu.Unlock()
	id := spec.ID
	if id != "" {
		if _, dup := s.scenarios.Get(id); dup {
			writeError(w, codeConflict, "scenario %q already exists", id)
			return
		}
	} else {
		for {
			s.nextID++
			id = fmt.Sprintf("s%d", s.nextID)
			if _, dup := s.scenarios.Get(id); !dup {
				break
			}
		}
	}
	// Durability handshake: the create record is on disk before the
	// scenario is published or the 201 sent.
	sc, err := s.create(id, &spec)
	if errors.As(err, new(refused)) {
		writeError(w, codeInvalidArgument, "scenario: %v", err)
		return
	}
	if s.writeCommandErr(w, id, err) {
		return
	}
	s.scenarios.Insert(id, sc)
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":       id,
		"flows":    sc.eng.Flows(),
		"migrator": sc.eng.MigratorName(),
		"snapshot": sc.eng.Snapshot(),
	})
}

// handleList serves the scenario listing with pagination and an
// optional status filter:
//
//	GET /v1/scenarios?limit=50&offset=100&status=degraded
//
// The envelope is {"scenarios": [...], "total": N, "limit": L,
// "offset": O}: total counts the scenarios matching the filter before
// pagination, so a client can page through a live fleet; limit ≤ 0 (or
// absent) returns everything from offset on.
func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, offset := 0, 0
	var err error
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, codeBadRequest, "bad limit %q", v)
			return
		}
	}
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			writeError(w, codeBadRequest, "bad offset %q", v)
			return
		}
	}
	status := q.Get("status")
	if status != "" && status != "active" && status != "degraded" {
		writeError(w, codeBadRequest, "bad status %q (want active or degraded)", status)
		return
	}

	ids := s.scenarios.Keys()
	matched := make([]*scenario, 0, len(ids))
	for _, id := range ids {
		sc := s.get(id)
		if sc == nil {
			continue
		}
		if status != "" && sc.status() != status {
			continue
		}
		matched = append(matched, sc)
	}
	total := len(matched)
	if offset > len(matched) {
		matched = nil
	} else {
		matched = matched[offset:]
	}
	if limit > 0 && limit < len(matched) {
		matched = matched[:limit]
	}
	out := make([]map[string]any, 0, len(matched))
	for _, sc := range matched {
		out = append(out, map[string]any{
			"id":       sc.ID,
			"name":     sc.Spec.Name,
			"created":  sc.Created,
			"status":   sc.status(),
			"snapshot": sc.eng.Snapshot(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"scenarios": out,
		"total":     total,
		"limit":     limit,
		"offset":    offset,
	})
}

// handleDelete removes the scenario from the registry (new requests see
// 404 immediately) and then drains its mailbox: commands already
// accepted still run, their waiting callers get answers, and only then
// is the deletion acknowledged. With a WAL, the scenario's log
// directory is retired after the drain — rename first (the atomic
// commit point; a crash mid-delete is collected at boot, never replayed
// back to life), then collect.
func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The scenario and its series leave together, under createMu: a
	// re-create of the id then resolves fresh series, never the ones
	// this scenario's draining actor still writes to.
	s.createMu.Lock()
	sc, ok := s.scenarios.Delete(id)
	if ok {
		s.dropSeries(id)
	}
	s.createMu.Unlock()
	if !ok {
		if s.retryWALDelete(w, id) {
			return
		}
		writeError(w, codeNotFound, "no scenario %q", id)
		return
	}
	drained := sc.actor.Depth()
	sc.actor.Close()
	if sc.wal != nil {
		sc.wal.Close()
		if err := s.dropWALDir(id); err != nil {
			// The scenario is gone from the registry but its log survived:
			// the next boot would resurrect it. A 200 here would
			// acknowledge a deletion that is not durable — answer 500 and
			// let the client retry (retryWALDelete finishes the job).
			s.log.Error("wal delete", slog.String("scenario", id), slog.Any("err", err))
			writeError(w, codeInternal, "scenario %q removed but its wal could not be retired (retry the delete): %v", id, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id, "drained": drained})
}

// retryWALDelete finishes a delete whose earlier attempt removed the
// scenario from the registry but failed to retire its WAL directory
// (and answered 500). If such an orphaned directory exists, retire it
// and acknowledge; reports whether it wrote a response. createMu
// excludes a concurrent re-create of the same id mid-drop.
func (s *server) retryWALDelete(w http.ResponseWriter, id string) bool {
	if !s.walEnabled() {
		return false
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if _, live := s.scenarios.Get(id); live {
		// Re-created since the lookup miss; the caller's 404 would now be
		// wrong, but so would deleting the new scenario's log — let the
		// client retry against the live scenario.
		writeError(w, codeConflict, "scenario %q was re-created, retry", id)
		return true
	}
	if _, err := s.fs.Stat(s.walPath(scenarioDirName(id))); err != nil {
		return false
	}
	if err := s.dropWALDir(id); err != nil {
		writeError(w, codeInternal, "scenario %q: wal: %v", id, err)
		return true
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id, "drained": 0})
	return true
}

// ingestResponse is the shared response of POST /rates and the bulk
// endpoint: the engine's accepted/coalesced/epoch accounting, plus the
// per-batch breakdown and the optional step result.
type ingestResponse struct {
	engine.IngestResult
	// Batches is the per-batch accounting (bulk endpoint only; the
	// single-call endpoint is one batch by construction).
	Batches []engine.IngestResult `json:"batches,omitempty"`
	// Step is the result of the epoch close requested with the ingest.
	Step *engine.StepResult `json:"step,omitempty"`
}

// bodyPool recycles the buffers decodeRatesBody reads a body into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer worth keeping: a rates body is a
// few tens of KB, and one 8 MiB request must not pin 8 MiB per pool slot.
const maxPooledBody = 1 << 20

// decodeRatesBody reads a POST …/rates body — {"updates":[…],"step":…},
// grammar in ratescan.go — whole into a pooled buffer, bounded by
// maxBodyBytes, and scans it there. The updates do not point into the
// buffer.
func decodeRatesBody(w http.ResponseWriter, r *http.Request) (updates []engine.RateUpdate, step bool, err error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, false, err
	}
	return scanRatesBody(buf.Bytes())
}

func (s *server) handleRates(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sc := s.get(id)
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", id)
		return
	}
	start := time.Now()
	updates, withStep, err := decodeRatesBody(w, r)
	s.decodeRates.Observe(time.Since(start).Seconds())
	if err != nil {
		writeError(w, codeBadRequest, "bad rates body: %v", err)
		return
	}
	// The step rides in the same mailbox slot as the ingest but is its own
	// command (and its own log record).
	ing := &ingestCmd{updates: updates}
	cmds := []command{ing}
	var step *stepCmd
	if withStep {
		step = &stepCmd{}
		cmds = append(cmds, step)
	}
	if s.writeCommandErr(w, id, sc.do(cmds...)) {
		return
	}
	resp := ingestResponse{IngestResult: ing.res}
	if step != nil {
		resp.Step = &step.res
	}
	writeJSON(w, http.StatusOK, resp)
}

// stepResponse is the StepResult plus the shard's queue accounting: how
// many commands were sitting in the mailbox when the step was
// submitted — all of them (ingest batches, fault events) execute before
// the step does, so this is the backlog the epoch close drained.
type stepResponse struct {
	engine.StepResult
	QueueDrained int `json:"queue_drained"`
}

func (s *server) handleStep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sc := s.get(id)
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", id)
		return
	}
	resp := stepResponse{QueueDrained: sc.actor.Depth()}
	step := &stepCmd{}
	if s.writeCommandErr(w, id, sc.do(step)) {
		return
	}
	resp.StepResult = step.res
	writeJSON(w, http.StatusOK, resp)
}

// faultsRequest is the topology-event body: faults to inject and faults
// to heal, applied as one atomic transition.
type faultsRequest struct {
	Inject []fault.Fault `json:"inject"`
	Heal   []fault.Fault `json:"heal"`
}

// handleFaults applies a topology event to one scenario: the engine
// swaps in the degraded view, replans service, and runs a repair
// migration. An infeasible transition (no surviving placement) is
// rejected with 503 unavailable and leaves the scenario untouched.
func (s *server) handleFaults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sc := s.get(id)
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", id)
		return
	}
	var req faultsRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, codeBadRequest, "bad faults body: %v", err)
		return
	}
	ctx := r.Context()
	if sc.wal != nil {
		// A logged fault transition must behave identically on replay,
		// where no client context exists: drop cancellation so "client
		// gave up mid-repair" can never make the log disagree with the
		// engine about whether the transition applied.
		ctx = context.WithoutCancel(ctx)
	}
	c := &faultsCmd{inject: req.Inject, heal: req.Heal, ctx: ctx}
	if s.writeCommandErr(w, id, sc.do(c)) {
		return
	}
	writeJSON(w, http.StatusOK, c.res)
}

// handleFaultsGet reports the scenario's active faults and unserved
// flows.
func (s *server) handleFaultsGet(w http.ResponseWriter, r *http.Request) {
	sc := s.get(r.PathValue("id"))
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	snap := sc.eng.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       sc.ID,
		"active":   sc.eng.Faults(),
		"degraded": snap.Degraded,
		"unserved": sc.eng.Unserved(),
	})
}

// handleHealth is the liveness probe. The build block identifies the
// deployment: module version, VCS revision/time/dirty flag when the
// binary was built from a checkout, and the Go toolchain.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"uptime": time.Since(s.start).String(),
		"build":  buildInfo(),
	})
}

// buildInfo extracts the identifying fields of debug.ReadBuildInfo
// once; test binaries and `go run` builds simply carry fewer fields.
var buildInfo = sync.OnceValue(func() map[string]string {
	out := map[string]string{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if bi.Main.Version != "" {
		out["version"] = bi.Main.Version
	}
	for _, set := range bi.Settings {
		switch set.Key {
		case "vcs.revision":
			out["revision"] = set.Value
		case "vcs.time":
			out["vcs_time"] = set.Value
		case "vcs.modified":
			out["dirty"] = set.Value
		}
	}
	return out
})

// handleReady is the readiness probe: 503 {"status":"recovering"}
// while the boot-time WAL replay runs (scenario state
// is incomplete — routing traffic here would serve stale or partial
// answers), 200 once recovery is done and every scenario serves its
// full fabric, 503 (with the degraded scenario ids) while any is in
// degraded mode. Liveness (/healthz) stays green throughout.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "status": "recovering"})
		return
	}
	var degraded []string
	s.scenarios.Range(func(id string, sc *scenario) bool {
		if sc.eng.Snapshot().Degraded {
			degraded = append(degraded, id)
		}
		return true
	})
	if len(degraded) > 0 {
		sort.Strings(degraded)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "degraded": degraded})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	sc := s.get(r.PathValue("id"))
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sc.eng.Snapshot())
}

// handleRouting serves the scenario's latest capacity-aware routing
// report: per-flow admission decisions and per-link utilization under the
// committed placement. 404 when the scenario exists but capacity routing
// is not enabled in its spec.
func (s *server) handleRouting(w http.ResponseWriter, r *http.Request) {
	sc := s.get(r.PathValue("id"))
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	rep := sc.eng.RoutingReport()
	if rep == nil {
		writeError(w, codeNotFound, "scenario %q has no capacity routing (set spec.routing)", sc.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": sc.ID, "routing": rep})
}

// handleState serves the durable engine state. It goes through the
// actor so the state a client reads reflects every command it enqueued
// before asking (read-your-writes for a bulk ingest followed by a state
// capture).
func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sc := s.get(id)
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", id)
		return
	}
	var st *engine.State
	err := sc.actor.Do(func() { st = sc.eng.State() })
	if s.writeCommandErr(w, id, err) {
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics serves the whole registry in Prometheus text exposition
// format 0.0.4. The per-scenario JSON counters that used to live here
// moved to GET /v1/scenarios/{id}/metrics.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleScenarioMetrics serves one scenario's engine counters as JSON.
func (s *server) handleScenarioMetrics(w http.ResponseWriter, r *http.Request) {
	sc := s.get(r.PathValue("id"))
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      sc.ID,
		"name":    sc.Spec.Name,
		"metrics": sc.eng.Metrics(),
	})
}

// handleEvents serves the scenario's bounded event ring, oldest first.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sc := s.get(r.PathValue("id"))
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", r.PathValue("id"))
		return
	}
	events := sc.events.Events()
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     sc.ID,
		"events": events,
		"total":  sc.events.Total(),
	})
}

// closeAll drains every scenario's mailbox — the shutdown checkpoints
// queued there included — and stops its run loop; part of graceful
// shutdown, after the HTTP listener has stopped accepting requests.
func (s *server) closeAll() {
	s.scenarios.Range(func(_ string, sc *scenario) bool {
		sc.actor.Close()
		return true
	})
}

// closeWALs syncs and closes every scenario's log, once the actors have
// drained — the close's sync is what makes an interval-policy tail
// durable on clean shutdown.
func (s *server) closeWALs() {
	s.scenarios.Range(func(id string, sc *scenario) bool {
		if sc.wal != nil {
			if err := sc.wal.Close(); err != nil {
				s.log.Warn("wal close", slog.String("scenario", id), slog.Any("err", err))
			}
		}
		return true
	})
}

// bumpNextID advances the auto-id counter past a restored scenario's
// id, so post-recovery creates never collide. Caller holds createMu.
func (s *server) bumpNextID(id string) {
	if n := len(id); n > 1 && id[0] == 's' {
		var num int
		if _, err := fmt.Sscanf(id[1:], "%d", &num); err == nil && num > s.nextID {
			s.nextID = num
		}
	}
}
