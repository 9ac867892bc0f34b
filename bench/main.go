// Command bench is the repository's benchmark: it builds cmd/vnfoptd,
// runs it as a separate process with its WAL on, drives it over the public
// HTTP API from closed-loop clients, and reports how long the daemon takes
// to react to a rate or fault change — end to end, and attributed to the
// layers underneath. See README.md in this directory.
//
//	bash bench/run.sh                                  # all four workloads
//	bash bench/run.sh -workload fault-storm -seed 2    # one workload
//	bash bench/run.sh -trace 1                         # per-layer metrics + bench/out/trace-<workload>.json
//	bash bench/run.sh -runs 10 -out a.json             # ten runs per workload, for -compare
//	bash bench/run.sh -compare a.json b.json           # diff two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vnfopt/internal/benchmeta"
)

// envelope is the result file: where and how the numbers were recorded,
// then every run.
type envelope struct {
	Host        benchmeta.Host  `json:"host"`
	Nproc       int             `json:"nproc"`
	DaemonProcs int             `json:"daemon_gomaxprocs"`
	Revision    string          `json:"git_revision"`
	Seed        int64           `json:"seed"`
	Seconds     float64         `json:"seconds"`
	Traced      bool            `json:"traced"`
	Workloads   []workloadStamp `json:"workloads"`
	Runs        []*result       `json:"runs"`
}

// workloadStamp records the fixed op counts and WAL policy of a workload.
type workloadStamp struct {
	Name      string `json:"name"`
	WALFlags  string `json:"wal_flags"`
	Scenarios int    `json:"scenarios"`
	K         int    `json:"k"`
	Flows     int    `json:"flows"`
	WarmupOps int    `json:"warmup_ops_per_client"`
	TraceOps  int    `json:"trace_ops_per_client"`
	// Ops per second of -seconds: per client in phase A, bulk bodies and
	// mix ops beside them in phase B.
	Ops         float64 `json:"ops_per_client_per_second"`
	BulkOps     float64 `json:"bulk_ops_per_second,omitempty"`
	BesideOps   float64 `json:"beside_bulk_ops_per_second,omitempty"`
	SetupRounds int     `json:"setup_rounds"`
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
		seed         = fs.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds      = fs.Float64("seconds", defaultSeconds, "length of the timed section on the recording host; sets each workload's op count")
		trace        = fs.Int("trace", 0, "1 = also replay in-process with spans and print the per-layer metrics")
		runs         = fs.Int("runs", 1, "runs per workload, all with the same seed")
		out          = fs.String("out", "", "result file (default bench/out/result.json)")
		compare      = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -runs at least 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *workloadFlag != "all" {
		if _, ok := fullSizes[*workloadFlag]; !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want all or one of %s)\n", *workloadFlag, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workloadFlag}
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Ctrl-C and SIGTERM must not leave a daemon or its directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killLive()
		removeRunDirs(outDir)
		os.Exit(130)
	}()

	bin, err := buildDaemon(root, outDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := &runConfig{bin: bin, outDir: outDir, procs: runtime.NumCPU(), seconds: *seconds, trace: *trace != 0}
	env := &envelope{
		Host: benchmeta.Collect(), Nproc: runtime.NumCPU(), DaemonProcs: cfg.procs,
		Revision: gitRevision(root), Seed: *seed, Seconds: *seconds, Traced: cfg.trace,
	}
	status := 0
	for _, name := range names {
		sz := fullSizes[name]
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(cfg, name, *seed, sz)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				removeRunDirs(outDir)
				return 1
			}
			if err := checkMetrics(res, cfg.trace); err != nil {
				res.Correct = false
				res.Failures = append(res.Failures, err.Error())
			}
			env.Runs = append(env.Runs, res)
			report(stdout, res, cfg.trace)
			if !res.Correct {
				status = 1
			}
		}
		env.Workloads = append(env.Workloads, workloadStamp{
			Name: name, WALFlags: strings.Join(walPolicy[name], " "), Scenarios: sz.scenarios, K: sz.k, Flows: sz.flows,
			WarmupOps: sz.warmup, TraceOps: sz.traceOps,
			Ops: sz.ops, BulkOps: sz.bulkOps, BesideOps: sz.besideOps, SetupRounds: sz.setups,
		})
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "result.json")
	}
	data, _ := json.MarshalIndent(env, "", "  ")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// The driver reads the last line of standard output: the last run's
	// result, end-to-end metrics untraced, per-layer metrics traced.
	last := env.Runs[len(env.Runs)-1]
	fmt.Fprintln(stdout, resultLine(last, cfg.trace))
	return status
}

// gitRevision stamps the result; a checkout that is not a git repository
// (the driver's) records "unknown".
func gitRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// removeRunDirs deletes daemon working directories an aborted run left.
// A daemon that was just sent SIGKILL may still create a file while its
// directory is being removed, so removal is retried until nothing is left.
func removeRunDirs(outDir string) {
	for try := 0; try < 50; try++ {
		dirs, _ := filepath.Glob(filepath.Join(outDir, "run-*"))
		if len(dirs) == 0 {
			return
		}
		for _, d := range dirs {
			_ = os.RemoveAll(d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reported lists the metric definitions a run prints: end to end always,
// per layer when traced.
func reported(traced bool) []metricDef {
	if traced {
		return append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...)
	}
	return endToEndMetrics
}

// checkMetrics requires every metric the run must print to be present
// and finite, and every end-to-end metric non-zero. Per-layer metrics a
// workload never touches (the route pass without routing) read zero.
func checkMetrics(res *result, traced bool) error {
	for _, def := range perLayerMetrics {
		if _, ok := res.Metrics[def.Name]; !ok && traced {
			res.Metrics[def.Name] = 0
		}
	}
	for _, def := range reported(traced) {
		v, ok := res.Metrics[def.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", def.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", def.Name, v)
		}
	}
	for _, def := range endToEndMetrics {
		if res.Metrics[def.Name] == 0 {
			return fmt.Errorf("end-to-end metric %s is zero", def.Name)
		}
	}
	return nil
}

// report prints one run for a person.
func report(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "== %s seed=%d ops_attempted=%d ops_failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.Correct)
	for _, def := range reported(traced) {
		fmt.Fprintf(w, "  %-32s %16.6f %s\n", def.Name, res.Metrics[def.Name], def.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultLine is the machine-readable result of one run.
func resultLine(res *result, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	metrics := make(map[string]mv, len(defs))
	for _, def := range defs {
		metrics[def.Name] = mv{res.Metrics[def.Name], def.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(line)
}
