package rfidraw

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/engine"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// ServeConfig configures the serving layer a System can expose: the
// rfidrawd daemon surface (HTTP control + streaming API, reader ingest
// gateway) and the session registry behind it. Zero values take the
// defaults noted per field.
type ServeConfig struct {
	// HTTPAddr is the control/streaming API address. Default
	// 127.0.0.1:8090.
	HTTPAddr string
	// IngestAddr is the reader ingest gateway address. Default
	// 127.0.0.1:7070.
	IngestAddr string
	// MaxSessions caps live sessions; creates beyond it are shed with
	// HTTP 503. Default 128.
	MaxSessions int
	// MaxSubscribers caps live-stream consumers per session; attaches
	// beyond it are shed with HTTP 503. Default 16.
	MaxSubscribers int
	// SubscriberQueue bounds each subscriber's queue, counted in
	// deliveries (one group-committed batch of events is one); a
	// consumer that falls behind loses the oldest deliveries (and is told
	// so with "drop" events) rather than stalling the session. Default
	// 256.
	SubscriberQueue int
	// SessionShards is each session engine's worker shard count.
	// Default 1 — sessions are the unit of parallelism; raise it for
	// sessions tracking many simultaneous tags.
	SessionShards int
	// MaxAcquireBuffer bounds each tag's warmup sample buffer: a tag
	// whose initial acquisition keeps failing is declared dead once this
	// many sweeps have been buffered, capping the per-tag memory a
	// session commits to unacquirable tags. Default 400 sweeps.
	MaxAcquireBuffer int
	// IdleTimeout expires sessions with no activity, readers or
	// subscribers. Default 2 minutes. Mutable at runtime via the
	// control API.
	IdleTimeout time.Duration
	// RetainFor bounds how long a parked session's record is kept with
	// no retrace or catch-up activity before it is forgotten and its
	// log deleted. 0 (the default) retains forever.
	RetainFor time.Duration
	// ReorderWindow is how long ingest holds reports to resequence
	// cross-reader skew. Default 25ms.
	ReorderWindow time.Duration

	// Capacity calibrates the admission layer's congestion score: each
	// per-session demand signal (search evaluations/s, WAL bytes/s,
	// late-report rate, subscriber backlog) is normalized against these
	// and the node score is the worst component. Zero fields take
	// generous defaults sized for a single modern core.
	Capacity CostCapacity
	// ShedThreshold is the congestion score at or above which new
	// sessions are refused with HTTP 429 + Retry-After. 0 takes the
	// default 0.9; negative disables score-driven shedding (the
	// MaxSessions hard cap still applies).
	ShedThreshold float64
	// ParkThreshold is the score at or above which the pressure loop
	// parks the lowest-cost durable sessions (engine reclaimed, record
	// kept serveable and resumable) until the score recovers. 0 takes
	// the default 0.75; negative disables parking under pressure.
	ParkThreshold float64

	// DataDir, when set, makes sessions durable: each session's
	// canonical resequenced report stream is recorded in a per-session
	// write-ahead log under this directory, retained session logs are
	// rehydrated as "recovered" sessions at startup, idle-expired
	// sessions are parked (engine reclaimed, record serveable) instead
	// of forgotten, and the retrace / ?from=seq catch-up APIs serve from
	// the record. Empty disables durability (the pre-WAL behaviour).
	DataDir string
	// WALSyncEvery fsyncs each session's log every N report appends
	// (drain boundaries always sync). 1 syncs every append. Default 64.
	WALSyncEvery int

	// TraceSampleN seeds the span-sampling cadence: 1-in-N resequenced
	// reports per session record a full stage-by-stage span, served as
	// NDJSON from GET /v1/sessions/{id}/trace. 0 (the default) disables
	// sampling; mutable at runtime via the control API.
	TraceSampleN int

	// Logger receives structured operational logs with session-scoped
	// attributes; nil discards them.
	Logger *slog.Logger
	// LogLevel, when non-nil, is the shared runtime-mutable level gate
	// the control API's "log_level" knob mutates.
	LogLevel *slog.LevelVar
}

// The serving layer's public types are the serving package's own, one
// definition each.
type (
	// CostCapacity is the congestion score's normalization basis: how
	// much of each resource this node is provisioned for.
	CostCapacity = server.Capacity
	// Server is a running rfidrawd serving layer bound to a System:
	// Start (or Serve) binds it, Close stops it and closes every
	// session.
	Server = server.Server
	// SessionSpec describes one serving session to open — the single
	// creation surface OpenSession, Client.CreateSession and POST
	// /v1/sessions all accept.
	SessionSpec = server.SessionSpec
	// WALPolicy tunes one session's write-ahead logging (systems serving
	// with ServeConfig.DataDir).
	WALPolicy = server.WALPolicy
	// Event is one item of a session's live output stream: a trace
	// point, a recognized glyph, a queue-drop or tier notice, or the
	// end-of-session marker.
	Event = server.Event
	// Subscription is one attached consumer of a session's event stream.
	Subscription = server.Subscriber
)

func (c ServeConfig) registryConfig(factory server.EngineFactory) server.RegistryConfig {
	return server.RegistryConfig{
		NewEngine:       factory,
		MaxSessions:     c.MaxSessions,
		MaxSubscribers:  c.MaxSubscribers,
		SubscriberQueue: c.SubscriberQueue,
		ReorderWindow:   c.ReorderWindow,
		IdleTimeout:     c.IdleTimeout,
		RetainFor:       c.RetainFor,
		Capacity:        c.Capacity,
		ShedThreshold:   c.ShedThreshold,
		ParkThreshold:   c.ParkThreshold,
		TraceSampleN:    c.TraceSampleN,
		Logger:          c.Logger,
		LogLevel:        c.LogLevel,
	}
}

// RetracedTag is one tag's outcome from a Session.Retrace: the public
// Result plus the error for tags that never acquired.
type RetracedTag struct {
	Tag    string
	Result *Result
	Err    error
}

// registry lazily builds the System's session registry. The first caller
// fixes the registry's limits: NewServer applies its ServeConfig,
// OpenSession applies defaults — so configure limits by building the
// server before opening in-process sessions.
func (s *System) registry(cfg ServeConfig) (*server.Registry, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.reg != nil {
		return s.reg, nil
	}
	// Session engines are built lazily per session; validate the
	// acquisition bound now so a misconfiguration fails server startup
	// instead of silently failing every tag at first ingest.
	if cfg.MaxAcquireBuffer > 0 && cfg.MaxAcquireBuffer < realtime.DefaultWarmupSamples {
		return nil, fmt.Errorf("rfidraw: MaxAcquireBuffer %d must be ≥ the %d-sample warmup",
			cfg.MaxAcquireBuffer, realtime.DefaultWarmupSamples)
	}
	shards := cfg.SessionShards
	if shards <= 0 {
		shards = 1
	}
	// systemFor resolves a session's (geometry, search) pair to a
	// positioning system through server.SystemFor, once per pair. The
	// default pair is this System's own precomputed positioner and
	// steering tables; every other combination builds its tables once
	// (steering-table construction is the expensive part) and every
	// session on that pair — live engine, recovery replay, retrace —
	// shares the result.
	var (
		geoMu  sync.Mutex
		geoSys = map[string]*core.System{}
	)
	systemFor := func(geometry string, search *vote.SearchConfig) (*core.System, error) {
		if geometry == "" {
			geometry = "default"
		}
		key := geometry
		if search != nil {
			key = fmt.Sprintf("%s|%d/%d/%d", geometry, search.Mode, search.TopK, search.Levels)
		}
		geoMu.Lock()
		defer geoMu.Unlock()
		if sys, ok := geoSys[key]; ok {
			return sys, nil
		}
		sys, err := server.SystemFor(s.eng.System(), geometry, search)
		if err != nil {
			return nil, err
		}
		geoSys[key] = sys
		return sys, nil
	}
	factory := func(sweep time.Duration, geometry string, search *vote.SearchConfig, onUpdate func(engine.Update)) (*engine.Engine, error) {
		sys, err := systemFor(geometry, search)
		if err != nil {
			return nil, err
		}
		return engine.New(engine.Config{
			Shards: shards,
			// Sessions on one (geometry, search) pair share a read-only
			// positioner and steering tables; each gets its own shard
			// group.
			System:           sys,
			SweepInterval:    sweep,
			MaxAcquireBuffer: cfg.MaxAcquireBuffer,
			OnUpdate:         onUpdate,
		})
	}
	regCfg := cfg.registryConfig(factory)
	if cfg.DataDir != "" {
		store, err := wal.Open(cfg.DataDir, wal.Options{SyncEvery: cfg.WALSyncEvery})
		if err != nil {
			return nil, fmt.Errorf("rfidraw: %w", err)
		}
		regCfg.WAL = store
		regCfg.NewReplayer = func(sweep time.Duration, geometry string, search *vote.SearchConfig, record bool) (*engine.Replayer, error) {
			// The replayer shares systemFor's cache with the live
			// factory: the same (geometry, search) pair resolves to the
			// same precomputed tables, so a retrace without an override
			// is byte-equivalent to the live trace by construction.
			sys, err := systemFor(geometry, search)
			if err != nil {
				return nil, err
			}
			return engine.NewReplayer(engine.Config{
				System:           sys,
				SweepInterval:    sweep,
				MaxAcquireBuffer: cfg.MaxAcquireBuffer,
				RecordTrace:      record,
			})
		}
	}
	reg, err := server.NewRegistry(regCfg)
	if err != nil {
		return nil, fmt.Errorf("rfidraw: %w", err)
	}
	s.reg = reg
	return reg, nil
}

// NewServer builds the daemon serving layer over this System: a session
// registry whose sessions share the System's precomputed positioner, an
// ingest gateway for readerwire reader connections, and the HTTP
// control/streaming/observability API. Call Start (or Serve) to bind it.
// The System's registry is built once, by its first user: a server built
// after OpenSession serves that registry, and only its addresses come
// from cfg.
func (s *System) NewServer(cfg ServeConfig) (*Server, error) {
	reg, err := s.registry(cfg)
	if err != nil {
		return nil, err
	}
	return server.New(reg, cfg.HTTPAddr, cfg.IngestAddr), nil
}

// Serve runs the daemon serving layer until the context is cancelled —
// the one-call form of NewServer + Serve that cmd/rfidrawd uses.
func (s *System) Serve(ctx context.Context, cfg ServeConfig) error {
	sv, err := s.NewServer(cfg)
	if err != nil {
		return err
	}
	return sv.Serve(ctx)
}

// ReaderReport is one live phase report fed into a Session: which antenna
// heard which tag when, at what phase. It is the public shape of the
// readerwire PhaseReport.
type ReaderReport struct {
	// Time is the reply time relative to the start of the session's
	// stream; reports must be non-decreasing per reader.
	Time time.Duration
	// ReaderID and Antenna identify the hearing port (antennas 1–8 in
	// the standard deployment).
	ReaderID int
	Antenna  int
	// EPC is the tag's 24-hex-digit identity; empty feeds a single
	// anonymous tag.
	EPC string
	// Phase is the measured wrapped phase in [0, 2π) radians.
	Phase float64
	// Power is the reply power in dB (informational).
	Power float64
}

// Session is an in-process serving session: the same registry entry the
// daemon serves over HTTP, fed and consumed directly by the embedding
// program.
type Session struct {
	inner *server.Session
}

// OpenSession creates a live session on the System's session registry.
// The session traces every tag it hears concurrently on its own engine
// shard group and delivers points and glyphs to subscribers; if a
// Server is running over the same System, the session is also visible
// on the daemon API under the same ID.
func (s *System) OpenSession(spec SessionSpec) (*Session, error) {
	if spec.Sweep <= 0 {
		return nil, fmt.Errorf("rfidraw: OpenSession needs a positive sweep interval")
	}
	reg, err := s.registry(ServeConfig{})
	if err != nil {
		return nil, err
	}
	sess, err := reg.Open(spec)
	if err != nil {
		return nil, fmt.Errorf("rfidraw: %w", err)
	}
	return &Session{inner: sess}, nil
}

// ID returns the session's registry identity.
func (s *Session) ID() string { return s.inner.ID }

// Offer feeds one phase report. It blocks for backpressure when the
// session's ingest queue is full and fails once the session is closed.
func (s *Session) Offer(rep ReaderReport) error {
	wire := rfid.Report{
		Time:      rep.Time,
		ReaderID:  rep.ReaderID,
		AntennaID: rep.Antenna,
		PhaseRad:  rep.Phase,
		PowerDB:   rep.Power,
	}
	if rep.EPC != "" {
		epc, err := rfid.ParseEPC(rep.EPC)
		if err != nil {
			return fmt.Errorf("rfidraw: %w", err)
		}
		wire.EPC = epc
	}
	return s.inner.Offer(wire)
}

// Flush drains buffered ingest and closes the engine's open sweeps,
// delivering any final positions to subscribers (e.g. at end of stream).
// Flush is idempotent: with nothing offered since the previous flush it
// is a no-op, so racing an explicit Flush against the session's own idle
// drain or Close never closes a sweep twice.
func (s *Session) Flush() error { return s.inner.Flush() }

// Retrace replays the session's write-ahead log (systems serving with
// ServeConfig.DataDir) through a fresh tracking pipeline and returns
// each tag's batch Result, keyed by EPC. With search nil the pipeline
// matches the live one and the results are byte-equivalent to the live
// trace; a non-nil search re-traces the same record under different
// tunables. head is the log sequence the retrace covered.
func (s *Session) Retrace(search *SearchConfig) (results []RetracedTag, head uint64, err error) {
	inner, head, err := s.inner.Retrace(search)
	if err != nil {
		return nil, 0, fmt.Errorf("rfidraw: %w", err)
	}
	out := make([]RetracedTag, 0, len(inner))
	for _, r := range inner {
		rt := RetracedTag{Tag: r.Tag, Err: r.Err}
		if r.Err == nil {
			rt.Result = convertResult(r.Result)
		}
		out = append(out, rt)
	}
	return out, head, nil
}

// Close tears the session down; subscribers see an "end" event and their
// channels close. Idempotent.
func (s *Session) Close() { s.inner.Close() }

// Subscribe attaches a consumer with a bounded queue (buffer <= 0 takes
// the default, 256 deliveries). A consumer that falls behind loses the
// oldest events — freshness beats completeness for a live cursor — and
// is told via "drop" events.
func (s *Session) Subscribe(buffer int) (*Subscription, error) {
	sub, err := s.inner.Subscribe(server.SubscribeOptions{Buffer: buffer})
	if err != nil {
		return nil, fmt.Errorf("rfidraw: %w", err)
	}
	return sub, nil
}

// SubscribeFrom attaches a catch-up consumer (systems serving with
// ServeConfig.DataDir): the stream opens with the session's recorded
// history replayed from its write-ahead log — points derived from log
// records with sequence ≥ from, 0 meaning everything — and then splices
// onto the live stream without gap or duplicate.
func (s *Session) SubscribeFrom(from uint64, buffer int) (*Subscription, error) {
	sub, err := s.inner.SubscribeFrom(from, server.SubscribeOptions{Buffer: buffer})
	if err != nil {
		return nil, fmt.Errorf("rfidraw: %w", err)
	}
	return sub, nil
}
