// Package server is the session-serving layer of the reproduction: the
// long-lived daemon side of the tracking pipeline, run as a multi-tenant
// service — the deployment shape the paper's "virtual touch screen that
// many users write on simultaneously" implies.
//
// It is built from four cooperating parts:
//
//   - a session registry (registry.go): named sessions, each binding a
//     client's tag-set to its own sharded tracking engine, with explicit
//     lifecycle — create, attach, detach, idle expiry, GC — and admission
//     control by live-session count;
//   - an ingest gateway (ingest.go): a TCP listener that accepts many
//     concurrent readerwire reader connections, each prefixed with a
//     one-line session preamble, decodes them through the self-healing
//     resync reader (reconnects and mid-frame disconnects do not kill a
//     session), sequences each reader's reports, and fans them into the
//     session's engine through a small time-reorder buffer;
//   - a streaming API (http.go): JSON control endpoints for session
//     lifecycle plus a chunked live stream (NDJSON or binary frames) of
//     trace points and recognized glyphs per session. Every subscriber,
//     HTTP or in-process, is fed by one per-session group commit
//     (delivery.go) through a bounded queue with a drop-oldest
//     slow-consumer policy, and attaches beyond the configured caps are
//     shed (HTTP 503);
//   - an observability surface (metrics.go): /healthz and /metrics with
//     counters for sessions, ingested reports (and a reports/s gauge),
//     emitted points, search evaluations, queue drops and shed requests,
//     plus a goroutine gauge the CI soak job uses to detect leaks.
//
// The delivery discipline borrows from streaming-media serving: per
// subscriber the queue is bounded and freshness beats completeness (a
// slow consumer loses the oldest points, never stalls the tracker), and
// beyond the admission caps the server sheds load explicitly rather than
// degrading every session.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/recognition"
	"rfidraw/internal/vote"
)

// Server is the rfidrawd daemon core: an HTTP API and an ingest gateway
// over a session registry.
type Server struct {
	reg     *Registry
	metrics *Metrics
	// httpAddr / ingestAddr are the requested listen addresses.
	httpAddr, ingestAddr string
	// logger is the registry's resolved structured logger.
	logger *slog.Logger

	httpLn   net.Listener
	ingestLn net.Listener
	httpSrv  *http.Server

	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once
	closeErr  error

	// pendingMu guards ingest connections still in their preamble
	// handshake: not yet owned by any session, so Close must disconnect
	// them itself or wg.Wait stalls on their read deadline.
	// pendingShutdown refuses late registrations from connections
	// accepted in the instant before the listener closed.
	pendingMu       sync.Mutex
	pendingIngest   map[net.Conn]struct{}
	pendingShutdown bool

	// scrape-rate state for the reports/s gauge.
	rateMu      sync.Mutex
	lastScrape  time.Time
	lastReports int64
}

// New builds a Server over a registry: the HTTP API listens on httpAddr
// (default 127.0.0.1:8090) and the reader ingest gateway on ingestAddr
// (default 127.0.0.1:7070). The server serves every session the registry
// holds, in-process ones included, and closing it closes the registry.
func New(reg *Registry, httpAddr, ingestAddr string) *Server {
	if httpAddr == "" {
		httpAddr = "127.0.0.1:8090"
	}
	if ingestAddr == "" {
		ingestAddr = "127.0.0.1:7070"
	}
	return &Server{
		httpAddr:      httpAddr,
		ingestAddr:    ingestAddr,
		reg:           reg,
		metrics:       reg.metrics,
		logger:        reg.logger,
		quit:          make(chan struct{}),
		pendingIngest: map[net.Conn]struct{}{},
	}
}

// Registry exposes the server's session registry (for in-process sessions
// and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Start binds both listeners and launches the accept and GC loops. It
// returns once the server is reachable; use Close (or Serve) to stop it.
func (s *Server) Start() error {
	httpLn, err := net.Listen("tcp", s.httpAddr)
	if err != nil {
		return fmt.Errorf("server: http listen: %w", err)
	}
	ingestLn, err := net.Listen("tcp", s.ingestAddr)
	if err != nil {
		httpLn.Close()
		return fmt.Errorf("server: ingest listen: %w", err)
	}
	s.httpLn, s.ingestLn = httpLn, ingestLn
	s.httpSrv = &http.Server{Handler: s.handler()}
	s.wg.Add(4)
	go func() {
		defer s.wg.Done()
		if err := s.httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logger.Error("http serve failed", "err", err)
		}
	}()
	go func() {
		defer s.wg.Done()
		s.serveIngest(ingestLn)
	}()
	go func() {
		defer s.wg.Done()
		s.gcLoop()
	}()
	go func() {
		defer s.wg.Done()
		s.pressureLoop()
	}()
	s.logger.Info("server listening", "http", s.HTTPAddr(), "ingest", s.IngestAddr())
	return nil
}

// Serve runs the server until the context is cancelled, then shuts it
// down. It is the blocking convenience over Start/Close.
func (s *Server) Serve(ctx context.Context) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	return s.Close()
}

// HTTPAddr returns the bound API address (resolved, useful with ":0").
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return s.httpAddr
	}
	return s.httpLn.Addr().String()
}

// IngestAddr returns the bound ingest gateway address.
func (s *Server) IngestAddr() string {
	if s.ingestLn == nil {
		return s.ingestAddr
	}
	return s.ingestLn.Addr().String()
}

// gcLoop expires idle sessions (and over-retained parked records) every
// max(idle/4, 1s). Each round re-reads the deadlines and its own wait
// from the published knobs, and a knob update wakes it to re-derive the
// wait at once, so lowering idle_ms takes effect within the new bound
// instead of after a wait sized for the old one.
func (s *Server) gcLoop() {
	last := time.Now()
	timer := time.NewTimer(gcPeriod(s.reg.knobs.Load()))
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			now := time.Now()
			last = now
			k := s.reg.knobs.Load()
			for _, id := range s.reg.ExpireIdle(now, time.Duration(k.IdleMS)*time.Millisecond) {
				s.logger.Info("session expired idle", "session", id)
			}
			for _, id := range s.reg.ExpireRetained(now, time.Duration(k.RetainMS)*time.Millisecond) {
				s.logger.Info("session retention expired, record deleted", "session", id)
			}
		case <-s.reg.knobsSet:
		case <-s.quit:
			return
		}
		// The next round is due a period after the last one, so frequent
		// knob updates never hold it off.
		timer.Reset(time.Until(last.Add(gcPeriod(s.reg.knobs.Load()))))
	}
}

// gcPeriod is the gc loop's wait under k: a quarter of the idle
// deadline, at least a second.
func gcPeriod(k *Knobs) time.Duration {
	return max(time.Duration(k.IdleMS)*time.Millisecond/4, time.Second)
}

// pressureLoopTick is the cadence of the congestion refresh and the
// park-under-pressure relief valve.
const pressureLoopTick = time.Second

// pressureLoop keeps the congestion score fresh and, when it crosses the
// park threshold, parks the lowest-cost durable sessions until the node
// is back under — shedding state it can rebuild from disk instead of
// collapsing.
func (s *Server) pressureLoop() {
	ticker := time.NewTicker(pressureLoopTick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.reg.ParkUnderPressure(time.Now())
		case <-s.quit:
			return
		}
	}
}

// Close shuts the listeners down, closes every session and waits for all
// server goroutines to drain. It is idempotent. The registry closes
// before the HTTP server shuts down: closing sessions ends their
// subscribers' streams, so long-lived stream handlers return instead of
// holding Shutdown to its timeout.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		if s.ingestLn != nil {
			s.ingestLn.Close()
		}
		s.closePendingIngest()
		s.reg.Close()
		if s.httpSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.closeErr = s.httpSrv.Shutdown(ctx)
			cancel()
		}
		s.wg.Wait()
	})
	return s.closeErr
}

// newRecognizer builds the glyph recognizer sessions share; it is in this
// file so every assembly path (daemon, tests, in-process registry) uses
// the same construction.
func newRecognizer() (*recognition.Recognizer, error) {
	return recognition.New(nil)
}

// EngineFactory is the hook a deployment provides to bind a session to a
// tracking engine: it must return a started engine whose OnUpdate is the
// given callback and whose streaming sweep interval is sweep. geometry
// names the session's antenna geometry ("" = default deployment); the
// factory builds the steering tables for it. search, when non-nil,
// overrides the deployment's vote-search configuration for this
// session's pipeline (and must configure it identically to how
// ReplayerFactory would, or retrace equivalence breaks).
type EngineFactory func(sweep time.Duration, geometry string, search *vote.SearchConfig, onUpdate func(engine.Update)) (*engine.Engine, error)
