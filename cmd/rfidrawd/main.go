// Command rfidrawd is the session-serving daemon: the long-lived host
// side of the virtual touch screen. It exposes
//
//   - a JSON control API and chunked NDJSON live streams on -http
//     (POST/GET/DELETE /v1/sessions, GET /v1/sessions/{id}/stream),
//   - an operator control plane (GET /v1/control, POST
//     /v1/control/config, POST /v1/sessions/{id}/park|resume|drain),
//   - a reader ingest gateway on -ingest (readerwire streams prefixed
//     with a "RFIDRAWD/1 <session-id>" line),
//   - observability on /healthz and /metrics: per-stage latency
//     histograms (rfidrawd_stage_seconds), end-to-end report latency,
//     sampled stage spans (GET /v1/sessions/{id}/trace, cadence set by
//     the control plane's trace_sample_n knob) and per-session
//     diagnostic timelines (GET /v1/sessions/{id}/events),
//   - opt-in runtime profiling on -pprof-addr (net/http/pprof).
//
// Each session binds its writers' tags to an engine shard group sharing
// the daemon's precomputed positioner. Admission is demand-driven: each
// session's cost (search evaluations/s, WAL bytes/s, late-report rate,
// subscriber backlog) rolls into a node congestion score, and at
// -shed-at the daemon refuses new sessions with HTTP 429 + Retry-After;
// at -park-at it parks the cheapest durable sessions (engine reclaimed,
// record kept resumable) until the score recovers. Beyond -max-sessions
// creates are shed with HTTP 503 regardless of score; slow stream
// consumers lose their oldest events instead of stalling the trackers.
//
// Usage:
//
//	rfidrawd -http 127.0.0.1:8090 -ingest 127.0.0.1:7070 -dist 2
//
// With -data-dir the daemon is durable: every session's resequenced
// report stream is recorded in a per-session write-ahead log, a restart
// rehydrates retained sessions in a "recovered" state, POST
// /v1/sessions/{id}/retrace re-traces any recorded session (optionally
// under a different search config), and GET .../stream?from=seq serves
// late subscribers the recorded history before splicing them live.
//
// Logs are structured (log/slog): -log-level gates severity (mutable at
// runtime via POST /v1/control/config {"log_level": ...}), -log-format
// picks text or json rendering.
//
// Drive it with cmd/loadgen, or point examples/streaming and
// examples/multiuser at it with their -daemon flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rfidraw"
	"rfidraw/internal/obs"
)

// daemonFlags is every tunable the command line exposes, validated as
// one unit before anything binds.
type daemonFlags struct {
	httpAddr   string
	ingestAddr string
	dist       float64
	shards     int
	maxSess    int
	maxSubs    int
	queue      int
	idle       time.Duration
	retain     time.Duration
	reorder    time.Duration
	maxAcquire int
	dataDir    string
	walSync    int

	evalCapacity      float64
	walCapacity       float64
	lateCapacity      float64
	backlogCapacity   float64
	downgradeCapacity float64
	shedAt            float64
	parkAt            float64

	traceSampleN int
	logLevel     string
	logFormat    string
	pprofAddr    string
	version      bool
}

func main() {
	var f daemonFlags
	flag.StringVar(&f.httpAddr, "http", "127.0.0.1:8090", "control/streaming API listen address")
	flag.StringVar(&f.ingestAddr, "ingest", "127.0.0.1:7070", "reader ingest gateway listen address")
	flag.Float64Var(&f.dist, "dist", 2, "writing plane distance in metres")
	flag.IntVar(&f.shards, "session-shards", 1, "engine worker shards per session")
	flag.IntVar(&f.maxSess, "max-sessions", 128, "hard admission cap on live sessions (503 beyond it)")
	flag.IntVar(&f.maxSubs, "max-subscribers", 16, "stream subscribers per session")
	flag.IntVar(&f.queue, "queue", 256, "per-subscriber bounded queue depth, in deliveries (one group-committed batch of events is one)")
	flag.DurationVar(&f.idle, "idle", 2*time.Minute, "idle session expiry")
	flag.DurationVar(&f.retain, "retain", 0, "forget parked session records untouched this long (0 = retain forever)")
	flag.DurationVar(&f.reorder, "reorder", 25*time.Millisecond, "cross-reader resequencing window")
	flag.IntVar(&f.maxAcquire, "max-acquire", 400, "per-tag warmup sample buffer bound (sweeps, ≥ the 4-sweep warmup)")
	flag.StringVar(&f.dataDir, "data-dir", "", "write-ahead log directory: sessions become durable, crash-recoverable and re-traceable (empty disables)")
	flag.IntVar(&f.walSync, "wal-sync", 64, "fsync the session log every N report appends (1 = every append; drains always sync)")
	flag.Float64Var(&f.evalCapacity, "eval-capacity", 0, "search-evaluation budget per second for the congestion score (0 = default)")
	flag.Float64Var(&f.walCapacity, "wal-capacity", 0, "WAL write budget in bytes per second for the congestion score (0 = default)")
	flag.Float64Var(&f.lateCapacity, "late-capacity", 0, "tolerable late-report rate per second for the congestion score (0 = default)")
	flag.Float64Var(&f.backlogCapacity, "backlog-capacity", 0, "tolerable worst subscriber queue fill fraction (0 = default)")
	flag.Float64Var(&f.downgradeCapacity, "downgrade-capacity", 0, "tolerable adaptive tier-downgrade rate per second for the congestion score (0 = default)")
	flag.Float64Var(&f.shedAt, "shed-at", 0, "congestion score refusing new sessions with 429 (0 = default 0.9, negative disables)")
	flag.Float64Var(&f.parkAt, "park-at", 0, "congestion score parking cheapest durable sessions (0 = default 0.75, negative disables)")
	flag.IntVar(&f.traceSampleN, "trace-sample-n", 0, "record a full stage span for 1-in-N reports per session (0 disables; mutable at runtime)")
	flag.StringVar(&f.logLevel, "log-level", "info", "log severity gate: debug, info, warn or error (mutable at runtime via the control API)")
	flag.StringVar(&f.logFormat, "log-format", "text", "log rendering: text or json")
	flag.StringVar(&f.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	flag.BoolVar(&f.version, "version", false, "print version and exit")
	flag.Parse()
	if f.version {
		fmt.Printf("rfidrawd %s (%s)\n", obs.BuildVersion(), obs.GoVersion())
		return
	}
	if err := f.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rfidrawd: invalid flags:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "rfidrawd:", err)
		os.Exit(1)
	}
}

// validate rejects malformed combinations before anything binds.
func (f daemonFlags) validate() error {
	if strings.TrimSpace(f.httpAddr) == "" {
		return fmt.Errorf("-http must name a TCP address")
	}
	if strings.TrimSpace(f.ingestAddr) == "" {
		return fmt.Errorf("-ingest must name a TCP address")
	}
	if strings.TrimSpace(f.httpAddr) == strings.TrimSpace(f.ingestAddr) {
		return fmt.Errorf("-http and -ingest must differ (both %q)", f.httpAddr)
	}
	if f.dist <= 0 {
		return fmt.Errorf("-dist %v must be a positive distance in metres", f.dist)
	}
	if f.shards < 1 {
		return fmt.Errorf("-session-shards %d needs at least one shard", f.shards)
	}
	if f.maxSess < 1 {
		return fmt.Errorf("-max-sessions %d needs at least one session", f.maxSess)
	}
	if f.maxSubs < 1 {
		return fmt.Errorf("-max-subscribers %d needs at least one subscriber", f.maxSubs)
	}
	if f.queue < 1 {
		return fmt.Errorf("-queue %d needs at least one slot", f.queue)
	}
	if f.idle <= 0 {
		return fmt.Errorf("-idle %v must be positive", f.idle)
	}
	if f.retain < 0 {
		return fmt.Errorf("-retain %v must be zero (forever) or positive", f.retain)
	}
	if f.reorder <= 0 {
		return fmt.Errorf("-reorder %v must be positive", f.reorder)
	}
	if f.maxAcquire < 1 {
		return fmt.Errorf("-max-acquire %d needs at least one buffered sweep", f.maxAcquire)
	}
	if f.walSync < 1 {
		return fmt.Errorf("-wal-sync %d must be at least 1 (sync every append)", f.walSync)
	}
	if f.evalCapacity < 0 || f.walCapacity < 0 || f.lateCapacity < 0 || f.downgradeCapacity < 0 {
		return fmt.Errorf("capacity budgets must be non-negative (0 = default)")
	}
	if f.backlogCapacity < 0 || f.backlogCapacity > 1 {
		return fmt.Errorf("-backlog-capacity %v must be a fraction in [0, 1]", f.backlogCapacity)
	}
	if f.shedAt > 0 && f.parkAt > 0 && f.parkAt >= f.shedAt {
		return fmt.Errorf("-park-at %v should sit below -shed-at %v: parking is the relief valve before shedding", f.parkAt, f.shedAt)
	}
	if f.traceSampleN < 0 {
		return fmt.Errorf("-trace-sample-n %d must be non-negative (0 disables)", f.traceSampleN)
	}
	switch f.logFormat {
	case "text", "json":
	default:
		return fmt.Errorf("-log-format %q must be text or json", f.logFormat)
	}
	switch f.logLevel {
	case "debug", "info", "warn", "warning", "error":
	default:
		return fmt.Errorf("-log-level %q must be debug, info, warn or error", f.logLevel)
	}
	return nil
}

// buildLogger assembles the daemon's structured logger: a level gate the
// control plane can mutate at runtime, rendered as text or JSON on
// stderr.
func buildLogger(f daemonFlags) (*slog.Logger, *slog.LevelVar, error) {
	level := new(slog.LevelVar)
	switch f.logLevel {
	case "debug":
		level.Set(slog.LevelDebug)
	case "info":
		level.Set(slog.LevelInfo)
	case "warn", "warning":
		level.Set(slog.LevelWarn)
	case "error":
		level.Set(slog.LevelError)
	default:
		return nil, nil, fmt.Errorf("unknown log level %q", f.logLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if f.logFormat == "json" {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), level, nil
}

// servePprof exposes the runtime profiling endpoints on their own
// listener, so production profiling never shares a port with the public
// API.
func servePprof(ctx context.Context, addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	logger.Info("pprof listening", "addr", addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("pprof serve failed", "err", err)
	}
}

func run(f daemonFlags) error {
	logger, level, err := buildLogger(f)
	if err != nil {
		return err
	}
	sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: f.dist})
	if err != nil {
		return err
	}
	defer sys.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if f.pprofAddr != "" {
		go servePprof(ctx, f.pprofAddr, logger)
	}
	logger.Info("rfidrawd starting", "version", obs.BuildVersion(), "go", obs.GoVersion())
	return sys.Serve(ctx, rfidraw.ServeConfig{
		HTTPAddr:         f.httpAddr,
		IngestAddr:       f.ingestAddr,
		MaxSessions:      f.maxSess,
		MaxSubscribers:   f.maxSubs,
		SubscriberQueue:  f.queue,
		SessionShards:    f.shards,
		MaxAcquireBuffer: f.maxAcquire,
		IdleTimeout:      f.idle,
		RetainFor:        f.retain,
		ReorderWindow:    f.reorder,
		DataDir:          f.dataDir,
		WALSyncEvery:     f.walSync,
		Capacity: rfidraw.CostCapacity{
			SearchEvalsPerSec: f.evalCapacity,
			WALBytesPerSec:    f.walCapacity,
			LatePerSec:        f.lateCapacity,
			Backlog:           f.backlogCapacity,
			DowngradesPerSec:  f.downgradeCapacity,
		},
		ShedThreshold: f.shedAt,
		ParkThreshold: f.parkAt,
		TraceSampleN:  f.traceSampleN,
		Logger:        logger,
		LogLevel:      level,
	})
}
