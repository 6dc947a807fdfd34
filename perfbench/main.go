// Command perfbench is the repository's benchmark. It drives an
// in-process rfidrawd — built with rfidraw.New and System.NewServer, the
// constructor and defaults cmd/rfidrawd uses, bound to 127.0.0.1:0 —
// with one of two workloads, checks every output against a reference,
// and prints one JSON result line. From the repository root:
//
//	bash perfbench/run.sh --workload solo-durable --seed 77 --seconds 20 --trace 0
//
// Workloads, generated by internal/sim from --seed; a run draws several
// rooms, the first from --seed itself, the others from seeds derived
// from it:
//
//   - solo-durable: one writer writing "touch", looped, into a durable
//     daemon (WAL synced every 64 appends) with one NDJSON subscriber. The
//     tracing step dominates the engine; WAL, pump and delivery weigh most.
//   - retrace: recorded solo-durable-shaped sessions, re-traced in a
//     closed loop of requests after a restart over their data dir.
//
// The live workload runs one session per scenario, back to back, each
// with one reader connection and one stream connection, in an open loop
// at a fixed speed-up of real time about a third of the daemon's
// capacity; nothing offers the daemon more (live.go says why). --trace 0
// prints the end-to-end metrics; --trace 1 runs the same sessions, then
// the traced ledger (ledger.go) and prints the per-layer metrics. Run
// details — percentiles with their sample counts, generator lateness,
// failures, the ledger table and its spans — go to standard error and
// to --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its standard output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	work     string
}

// outcome collects a run's verdict, counts, metrics and details.
type outcome struct {
	violations []string
	attempted  int
	failed     int
	metrics    map[string]metric
	detail     map[string]any
}

// violate records a correctness-gate violation: the run is not correct.
func (o *outcome) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.violations = append(o.violations, msg)
	fmt.Fprintln(os.Stderr, "perfbench: VIOLATION:", msg)
}

// note records a counted failure or a warning that does not fail the run.
func (o *outcome) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.detail["notes"] = append(o.detail["notes"].([]string), msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

func (o *outcome) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// endToEnd assembles the end-to-end metrics.
func endToEnd(e2e layerCost, traceErrCM float64, setup setupStats) map[string]metric {
	return map[string]metric{
		"cpu_us_per_report": {e2e.ns / 1000, "us"},
		"trace_err_cm":      {traceErrCM, "cm"},
		"allocs_per_report": {e2e.allocs, "count"},
		"setup_s":           {setup.Median, "s"},
		"setup_heap_mb":     {setup.HeapMB, "MB"},
	}
}

// wallClock assembles the end-to-end latency. The traced run reports it
// next to the ledger, without a bound: on a shared two-vCPU host it moves
// with the time the hypervisor steals — across sets of ten runs p99
// spread 0.12 to 0.74 — while the CPU-time metrics above stay within 0.1.
func wallClock(lat summary) map[string]metric {
	return map[string]metric{
		"e2e.latency_p50_ms": {lat.P50, "ms"},
		"e2e.latency_p99_ms": {lat.P99, "ms"},
	}
}

// finishLedger reports a traced run: the ledger table to standard
// error, the spans to --out, the per-layer and wall-clock metrics to the
// result.
func (o *outcome) finishLedger(cfg runConfig, l *ledger, tr *tracer, wall map[string]metric) error {
	table := l.table()
	o.detail["ledger"] = strings.Split(strings.TrimRight(table, "\n"), "\n")
	fmt.Fprintf(os.Stderr, "perfbench: ledger (%d reports, GOMAXPROCS=1 rungs)\n%s", l.reports, table)
	o.metrics = l.metrics()
	for name, m := range wall {
		o.metrics[name] = m
	}
	return tr.write(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-spans.ndjson", cfg.workload, cfg.seed)))
}

var workloads = map[string]func(context.Context, runConfig, *outcome) error{
	"solo-durable": func(ctx context.Context, cfg runConfig, o *outcome) error { return runLive(ctx, soloDurable, cfg, o) },
	"retrace":      runRetrace,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "solo-durable", "workload: solo-durable or retrace")
	flag.Int64Var(&cfg.seed, "seed", 77, "scenario seed the workload's input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds, shared by a run's sessions or retrace requests")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced ledger and prints the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_out", "directory for run details, spans and scratch data")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 2 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload solo-durable|retrace, --seconds ≥ 2 and --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.work = filepath.Join(cfg.out, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	res, err := execute(run, cfg)
	if rerr := os.RemoveAll(cfg.work); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func execute(run func(context.Context, runConfig, *outcome) error, cfg runConfig) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	o := &outcome{detail: map[string]any{"notes": []string{}}}
	start := time.Now()
	if err := run(ctx, cfg, o); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(o.metrics))
	for name, m := range o.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	res := &result{Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	o.detail["workload"], o.detail["seed"], o.detail["seconds"], o.detail["trace"] = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	o.detail["violations"], o.detail["result"], o.detail["wall_s"] = o.violations, res, time.Since(start).Seconds()
	b, err := json.MarshalIndent(o.detail, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	o.logf("%s seed %d: correct=%v attempted=%d failed=%d (%.1fs); details in %s",
		cfg.workload, cfg.seed, res.Correct, res.Attempted, res.Failed, time.Since(start).Seconds(), path)
	return res, nil
}
