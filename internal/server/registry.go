package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/recognition"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// RegistryConfig tunes the session registry.
type RegistryConfig struct {
	// NewEngine binds a new session to a tracking engine. Required.
	NewEngine EngineFactory

	// WAL, when non-nil, makes every session durable: ingest records
	// the session's canonical resequenced report stream in a per-session
	// write-ahead log, closed-but-retained sessions are rehydrated into
	// the registry as "recovered" at construction, and retrace /
	// ?from=seq catch-up serve from the record. NewReplayer is then
	// required too.
	WAL *wal.Store
	// NewReplayer binds a WAL replay to a fresh tracking pipeline built
	// like NewEngine's (same deployment, same defaults), optionally
	// under an overridden SearchConfig. Required when WAL is set.
	NewReplayer ReplayerFactory

	// MaxSessions is the hard admission cap on live sessions; opens
	// beyond it are shed with ErrSessionLimit (HTTP 503). Before the cap
	// is reached, admission is governed by the congestion score — see
	// ShedThreshold. Default 128.
	MaxSessions int
	// MaxSubscribers caps stream consumers per session. Default 16.
	MaxSubscribers int
	// SubscriberQueue is the per-subscriber bounded queue depth in
	// batches: a group commit, a replayed log record's events, or a drop,
	// tier or end notice is one queue item. Default 256.
	SubscriberQueue int
	// ReorderWindow is how long reports are held to resequence
	// cross-reader skew. Default 25ms.
	ReorderWindow time.Duration
	// NoRecognize disables glyph recognition: no recognizer is built and
	// sessions emit only point events.
	NoRecognize bool

	// Capacity, ShedThreshold, ParkThreshold, IdleTimeout, RetainFor and
	// TraceSampleN seed the runtime knobs (see Knobs, which documents
	// each and whose Validate rules they must pass; the durations are
	// kept in whole milliseconds). Zero takes the default: a generous
	// search-evaluation budget, shed at 0.9, park at 0.75, idle after 2
	// minutes, retain forever, no span sampling. A negative threshold
	// disables its policy (the MaxSessions hard cap still applies).
	Capacity      Capacity
	ShedThreshold float64
	ParkThreshold float64
	IdleTimeout   time.Duration
	RetainFor     time.Duration
	TraceSampleN  int

	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger
	// LogLevel, when non-nil, is the shared level gate the log_level
	// knob sets; its level at construction seeds the knob. Nil builds a
	// private one at Info.
	LogLevel *slog.LevelVar
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 128
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 16
	}
	if c.SubscriberQueue <= 0 {
		c.SubscriberQueue = 256
	}
	if c.ReorderWindow <= 0 {
		c.ReorderWindow = 25 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	return c
}

// SessionSpec describes one session to open: the single creation
// surface Registry.Open, Client.CreateSession, System.OpenSession and
// POST /v1/sessions all accept, so a new per-session knob is one field
// here instead of another constructor pair everywhere.
type SessionSpec struct {
	// ID names the session; "" assigns a random one.
	ID string
	// Sweep, when positive, is the per-tag reader cadence known up
	// front; ingest-fed sessions may leave it 0 and let the first reader
	// Hello announce it.
	Sweep time.Duration
	// Geometry names the session's antenna geometry (deploy registry
	// name); "" is the default deployment. Fixed for the session's
	// lifetime: the engine builds its steering tables from it, the WAL
	// meta records it, and recovery and retrace rebuild the same tables.
	Geometry string
	// Search, when non-nil, overrides the deployment's vote-search
	// configuration for this session. It is recorded in the WAL meta so
	// recovery, retrace and catch-up rebuild the same search the live
	// engine ran. TopK and Levels must fit in [0, 255] (the meta
	// encoding); nil takes the registry's runtime default.
	Search *vote.SearchConfig
}

// ErrBadSpec reports a SessionSpec, a runtime-knob record, a flag or a
// request body that cannot be applied as given.
var ErrBadSpec = errors.New("server: invalid value")

// Knobs is the registry's runtime configuration: the record the control
// plane serves (GET /v1/control) and patches (POST /v1/control/config)
// while sessions are being served, under these JSON keys. The registry
// publishes one validated record at a time; see Validate for the rules.
type Knobs struct {
	// IdleMS is the idle-expiry deadline for live sessions.
	IdleMS int64 `json:"idle_ms"`
	// RetainMS bounds how long a parked record is kept with no retrace
	// or catch-up activity before it is forgotten and its log deleted;
	// 0 retains forever.
	RetainMS int64 `json:"retain_ms"`
	// ShedThreshold is the congestion score at or above which opens are
	// refused with ErrOverloaded (HTTP 429 + Retry-After); ParkThreshold
	// is the score at or above which the pressure loop parks the
	// cheapest durable sessions. 0 takes the default (0.9 and 0.75), a
	// negative value disables the policy.
	ShedThreshold float64 `json:"shed_threshold"`
	ParkThreshold float64 `json:"park_threshold"`
	// Capacity is the congestion score's normalization basis.
	Capacity Capacity `json:"capacity"`
	// Search is the vote-search of new sessions whose spec names none;
	// null is the deployment default.
	Search *SearchJSON `json:"search"`
	// TraceSampleN records a full stage-by-stage span for 1 in N reports
	// per session; 0 disables sampling.
	TraceSampleN int `json:"trace_sample_n"`
	// LogLevel gates structured logging: "debug", "info", "warn" or
	// "error".
	LogLevel string `json:"log_level"`
}

// Validate is the one rule set of the runtime knobs. NewRegistry, the
// control plane and rfidrawd's flags all pass through it: idle must be
// positive, retain, trace_sample_n and capacity non-negative, a
// threshold of 0 means its default and a negative one disables its
// policy, park must sit below shed when both are enabled, and the log
// level and search must be ones the daemon knows. It returns k with the
// defaults filled in and the search and level spelled canonically, or
// an ErrBadSpec error naming the first rule k breaks.
func (k Knobs) Validate() (Knobs, error) {
	switch {
	case k.IdleMS <= 0:
		return k, fmt.Errorf("%w: idle_ms %d must be positive", ErrBadSpec, k.IdleMS)
	case k.RetainMS < 0:
		return k, fmt.Errorf("%w: retain_ms %d must be >= 0 (0 retains forever)", ErrBadSpec, k.RetainMS)
	case k.TraceSampleN < 0:
		return k, fmt.Errorf("%w: trace_sample_n %d must be >= 0 (0 disables)", ErrBadSpec, k.TraceSampleN)
	case k.Capacity.SearchEvalsPerSec < 0:
		return k, fmt.Errorf("%w: capacity search_evals_per_sec %v must be >= 0 (0 takes the default)",
			ErrBadSpec, k.Capacity.SearchEvalsPerSec)
	}
	if k.ShedThreshold == 0 {
		k.ShedThreshold = 0.9
	}
	if k.ParkThreshold == 0 {
		k.ParkThreshold = 0.75
	}
	if k.ShedThreshold > 0 && k.ParkThreshold >= k.ShedThreshold {
		return k, fmt.Errorf("%w: park_threshold %v must sit below shed_threshold %v: parking is the relief valve before shedding",
			ErrBadSpec, k.ParkThreshold, k.ShedThreshold)
	}
	k.Capacity = k.Capacity.withDefaults()
	level, err := ParseLevel(k.LogLevel)
	if err != nil {
		return k, err
	}
	k.LogLevel = levelName(level)
	if k.Search != nil {
		sc, err := k.Search.config()
		if err != nil {
			return k, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		if err := validateSearch(sc); err != nil {
			return k, err
		}
		k.Search = toSearchJSON(sc)
	}
	return k, nil
}

// clone copies k deep: the search block is the one field shared by
// pointer.
func (k Knobs) clone() Knobs {
	if k.Search != nil {
		sc := *k.Search
		k.Search = &sc
	}
	return k
}

// Knobs returns a copy of the published runtime knobs.
func (r *Registry) Knobs() Knobs { return r.knobs.Load().clone() }

// UpdateKnobs patches the runtime knobs with a partial JSON Knobs
// object: it is decoded onto a copy of the published record (absent keys
// keep their value, null clears the search), validated whole and
// published. An unknown key, a malformed body or a broken rule is an
// ErrBadSpec and changes nothing. Updates are serialized, so concurrent
// patches of different keys never lose each other.
func (r *Registry) UpdateKnobs(patch []byte) error {
	r.knobMu.Lock()
	defer r.knobMu.Unlock()
	k := r.knobs.Load().clone()
	if err := decodeBody(bytes.NewReader(patch), &k); err != nil {
		return err
	}
	k, err := k.Validate()
	if err != nil {
		return err
	}
	r.publish(k)
	select {
	case r.knobsSet <- struct{}{}:
	default:
	}
	return nil
}

// publish makes a validated record the registry's knobs. The level gate
// is shared with the logger, so it is set from the record here.
func (r *Registry) publish(k Knobs) {
	level, _ := ParseLevel(k.LogLevel)
	r.levelVar.Set(level)
	r.knobs.Store(&k)
}

// Registry is the session table: it owns session lifecycle (create,
// lookup, remove, park/resume, idle expiry) and demand-driven admission
// control. It is safe for concurrent use and usable standalone
// (in-process sessions via rfidraw.System.OpenSession) or under a
// Server.
type Registry struct {
	cfg     RegistryConfig
	metrics *Metrics
	rec     *recognition.Recognizer

	// knobs is the published runtime configuration, replaced whole by
	// UpdateKnobs: readers load it without a lock, knobMu serializes the
	// writers, and knobsSet (capacity 1) wakes the server's gc loop to
	// re-read its deadlines.
	knobs    atomic.Pointer[Knobs]
	knobMu   sync.Mutex
	knobsSet chan struct{}

	// logger is the resolved structured logger (never nil); levelVar is
	// its runtime-mutable level gate.
	logger   *slog.Logger
	levelVar *slog.LevelVar
	// pipeline aggregates every session's stage and end-to-end latency
	// stamps into the /metrics histograms.
	pipeline *obs.Pipeline
	// stripeSeq deals histogram stripes to new sessions round-robin.
	stripeSeq atomic.Int64

	// mu guards the session table. Lock order: mu, then a session's
	// lock. Only live sessions occupy MaxSessions slots; recovered ones
	// hold no engine or goroutines but still reserve their IDs.
	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool
	// live counts the sessions in the live state: a session takes a slot
	// when it is built (under mu, by Open or Resume) and gives it back in
	// Session.moveLocked, the one place a session leaves live. Admission
	// reads it in O(1) however many retained records the table holds.
	live atomic.Int64

	// scoreMu guards the cached congestion score (see cost.go).
	scoreMu sync.Mutex
	score   NodeScore
}

// NewRegistry builds a registry. cfg.NewEngine is required. With
// cfg.WAL set, closed-but-retained session logs found in the store are
// rehydrated as recovered sessions before the registry opens.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.NewEngine == nil {
		return nil, errors.New("server: RegistryConfig.NewEngine is required")
	}
	if cfg.WAL != nil && cfg.NewReplayer == nil {
		return nil, errors.New("server: RegistryConfig.NewReplayer is required with WAL")
	}
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:      cfg,
		metrics:  &Metrics{},
		sessions: map[string]*Session{},
		pipeline: &obs.Pipeline{},
		levelVar: cfg.LogLevel,
		knobsSet: make(chan struct{}, 1),
	}
	if r.levelVar == nil {
		r.levelVar = &slog.LevelVar{}
	}
	r.logger = cfg.Logger
	if r.logger == nil {
		r.logger = slog.New(slog.DiscardHandler)
	}
	k, err := Knobs{
		IdleMS:        cfg.IdleTimeout.Milliseconds(),
		RetainMS:      cfg.RetainFor.Milliseconds(),
		ShedThreshold: cfg.ShedThreshold,
		ParkThreshold: cfg.ParkThreshold,
		Capacity:      cfg.Capacity,
		TraceSampleN:  cfg.TraceSampleN,
		LogLevel:      levelName(r.levelVar.Level()),
	}.Validate()
	if err != nil {
		return nil, err
	}
	r.publish(k)
	if !cfg.NoRecognize {
		rec, err := newRecognizer()
		if err != nil {
			return nil, err
		}
		r.rec = rec
	}
	if cfg.WAL != nil {
		if err := r.recover(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// recover rehydrates every retained session log into the registry in the
// recovered state. Unreadable logs are logged and skipped, never fatal —
// recovery's job is to bring back what the disk still holds.
func (r *Registry) recover() error {
	ids, err := r.cfg.WAL.Sessions()
	if err != nil {
		return fmt.Errorf("server: wal recovery: %w", err)
	}
	for _, id := range ids {
		meta, stats, err := r.cfg.WAL.Scan(id)
		if err != nil {
			r.logger.Warn("wal recovery: session unreadable", "session", id, "err", err)
			continue
		}
		if stats.TornBytes > 0 {
			r.metrics.WALTornBytes.Add(stats.TornBytes)
			r.logger.Warn("wal recovery: dropped torn bytes", "session", id, "bytes", stats.TornBytes)
		}
		s := newRecoveredSession(r, meta, stats)
		r.sessions[id] = s
		r.metrics.SessionsRecovered.Add(1)
		r.metrics.SessionsRetained.Add(1)
		r.logger.Info("wal recovery: session rehydrated",
			"session", id, "reports", stats.Reports, "clean", stats.CleanClose)
	}
	return nil
}

// WALUsage reports the registry's on-disk log footprint (metrics); zero
// without a WAL store.
func (r *Registry) WALUsage() wal.Usage {
	if r.cfg.WAL == nil {
		return wal.Usage{}
	}
	return r.cfg.WAL.Usage()
}

// Metrics exposes the registry's counter set.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Pipeline exposes the registry's latency histograms.
func (r *Registry) Pipeline() *obs.Pipeline { return r.pipeline }

// nextStripe deals the next session's histogram stripe.
func (r *Registry) nextStripe() int { return int(r.stripeSeq.Add(1)) }

// Open creates a session from a spec. Opens at the MaxSessions hard cap
// fail with ErrSessionLimit (HTTP 503); below it, a congestion score at
// or past the shed threshold fails with an OverloadError wrapping
// ErrOverloaded (HTTP 429 + Retry-After) — admission is driven by what
// the node is actually spending, not the flat count alone.
func (r *Registry) Open(spec SessionSpec) (*Session, error) {
	if spec.ID == "" {
		spec.ID = randomID()
	} else if err := validateID(spec.ID); err != nil {
		return nil, err
	}
	if spec.Search != nil {
		if err := validateSearch(spec.Search); err != nil {
			return nil, err
		}
		cp := *spec.Search
		spec.Search = &cp
	} else if def := r.knobs.Load().Search; def != nil {
		spec.Search, _ = def.config() // published knobs hold a valid search
	}
	// First pass: the checks that need no cost sampling. The hard cap is
	// examined before the score so a full node always answers 503, and
	// an ID conflict is never reported as overload.
	if err := r.admitLocked(spec.ID); err != nil {
		return nil, err
	}
	// Score-driven admission: sample outside r.mu (sampling takes
	// per-session locks).
	if shedAt := r.knobs.Load().ShedThreshold; shedAt > 0 {
		sc := r.refreshCongestionIfStale(time.Now())
		if sc.Score >= shedAt {
			r.metrics.Shed.Add(1)
			r.metrics.AdmissionRejected.Add(1)
			return nil, &OverloadError{Score: sc.Score, RetryAfter: retryAfterFor(sc.Score, shedAt)}
		}
	}
	r.mu.Lock()
	// Re-check under the lock: a racing open may have taken the last
	// slot or the ID while the score was sampling.
	if err := r.admitLockedUnsafe(spec.ID); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	s := newSession(r, spec, resumeState{})
	r.sessions[spec.ID] = s
	r.mu.Unlock()
	r.metrics.SessionsCreated.Add(1)
	r.metrics.SessionsActive.Add(1)
	return s, nil
}

// admitLocked runs the lock-scope admission checks under r.mu.
func (r *Registry) admitLocked(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLockedUnsafe(id)
}

// admitLockedUnsafe is admitLocked's body; the caller holds r.mu.
func (r *Registry) admitLockedUnsafe(id string) error {
	if r.closed {
		return ErrSessionClosed
	}
	if _, ok := r.sessions[id]; ok {
		// Recovered sessions reserve their IDs too: DELETE the retained
		// record (or resume it) before reusing one.
		return ErrSessionExists
	}
	if r.live.Load() >= int64(r.cfg.MaxSessions) {
		r.metrics.Shed.Add(1)
		return ErrSessionLimit
	}
	return nil
}

// liveLocked lists the table's live sessions: the ones sampled for
// congestion and eligible for parking. It takes no session lock.
// Caller holds r.mu.
func (r *Registry) liveLocked() []*Session {
	var live []*Session
	for _, s := range r.sessions {
		if s.lifecycle() == stateLive {
			live = append(live, s)
		}
	}
	return live
}

// validateSearch bounds a per-session search override to what the WAL
// meta can record (and sane mode values).
func validateSearch(sc *vote.SearchConfig) error {
	if sc.Mode != vote.SearchHierarchical && sc.Mode != vote.SearchDense {
		return fmt.Errorf("%w: unknown search mode %d", ErrBadSpec, sc.Mode)
	}
	if sc.TopK < 0 || sc.TopK > 255 {
		return fmt.Errorf("%w: search top_k %d outside [0, 255]", ErrBadSpec, sc.TopK)
	}
	if sc.Levels < 0 || sc.Levels > 255 {
		return fmt.Errorf("%w: search levels %d outside [0, 255]", ErrBadSpec, sc.Levels)
	}
	return nil
}

// Get looks a session up.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// List returns the live sessions sorted by ID.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the live session count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Remove closes a session, deletes it from the table AND deletes its
// retained WAL record if any (an explicit delete means forget),
// reporting whether it existed. A session whose claimed teardown (park
// or idle expiry) is in flight reports not-found: the claimer owns it,
// and a later delete finds it parked and wins.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if !ok || s.Closing() {
		r.mu.Unlock()
		return false
	}
	delete(r.sessions, id)
	r.mu.Unlock()
	s.Close()
	r.forget(s)
	return true
}

// RefreshCongestion re-samples every live session's cost and rolls the
// node congestion score up from the sums (see cost.go). It is called by
// the server's pressure loop, by admission when the cached score has
// gone stale, and by /metrics and the control API so operators always
// read a current value.
func (r *Registry) RefreshCongestion(now time.Time) NodeScore {
	capacity := r.knobs.Load().Capacity
	r.mu.Lock()
	live := r.liveLocked()
	r.mu.Unlock()
	var parts ScoreComponents
	for _, s := range live {
		c := s.sampleCost(now, capacity)
		parts.SearchEvals += c.EvalsPerSec
		parts.WALBytes += c.WALBytesPerSec
		parts.ReorderLate += c.LatePerSec
		parts.TierPressure += c.DowngradesPerSec
		if c.Backlog > parts.Backlog {
			parts.Backlog = c.Backlog
		}
	}
	parts.SearchEvals /= capacity.SearchEvalsPerSec
	parts.WALBytes /= walBytesPerSec
	parts.ReorderLate /= latePerSec
	parts.Backlog /= backlogBudget
	parts.TierPressure /= downgradesPerSec
	parts.SessionSlots = float64(len(live)) / float64(r.cfg.MaxSessions)
	score := NodeScore{Score: maxScore(parts), Components: parts, SampledAt: now}
	r.scoreMu.Lock()
	r.score = score
	r.scoreMu.Unlock()
	return score
}

// congestionStaleness bounds how old a cached score admission will act
// on before re-sampling (registries without a pressure loop refresh on
// the admission path itself).
const congestionStaleness = 500 * time.Millisecond

func (r *Registry) refreshCongestionIfStale(now time.Time) NodeScore {
	r.scoreMu.Lock()
	sc := r.score
	r.scoreMu.Unlock()
	if !sc.SampledAt.IsZero() && now.Sub(sc.SampledAt) < congestionStaleness {
		return sc
	}
	return r.RefreshCongestion(now)
}

// ParkUnderPressure is the pressure loop's relief valve: while the
// congestion score sits at or above the park threshold, it parks the
// lowest-cost durable live sessions — the sessions whose records can be
// rebuilt from disk for the least lost value — one at a time, until the
// score recovers or no candidates remain. Returns the parked IDs.
func (r *Registry) ParkUnderPressure(now time.Time) []string {
	parkAt := r.knobs.Load().ParkThreshold
	if parkAt <= 0 || r.cfg.WAL == nil {
		return nil
	}
	sc := r.RefreshCongestion(now)
	if sc.Score < parkAt {
		return nil
	}
	type cand struct {
		s    *Session
		cost float64
	}
	r.mu.Lock()
	live := r.liveLocked()
	r.mu.Unlock()
	cands := make([]cand, 0, len(live))
	for _, s := range live {
		if s.WALSeq() > 0 {
			cands = append(cands, cand{s: s, cost: s.Cost().Cost})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].s.ID < cands[j].s.ID
	})
	var parked []string
	for _, c := range cands {
		if len(parked) > 0 {
			// Parked sessions leave the live set, so a re-roll drops their
			// contribution; stop as soon as the node is back under.
			if sc = r.RefreshCongestion(now); sc.Score < parkAt {
				break
			}
		}
		if err := r.parkSession(c.s, "pressure"); err == nil {
			parked = append(parked, c.s.ID)
			r.logger.Info("session parked under pressure", "session", c.s.ID, "score", sc.Score)
		}
	}
	return parked
}

// Park parks one live durable session on operator request: the engine
// and goroutines are reclaimed, readers and subscribers are
// disconnected, and the session stays in the registry in the recovered
// state, serveable (retrace, catch-up) and resumable. Parking an
// already-parked session is a no-op.
func (r *Registry) Park(id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if !ok {
		return ErrUnknownSession
	}
	return r.parkSession(s, "operator")
}

func (r *Registry) parkSession(s *Session, reason string) error {
	if r.cfg.WAL == nil || s.WALSeq() == 0 {
		return ErrNotDurable
	}
	r.mu.Lock()
	if r.sessions[s.ID] != s {
		r.mu.Unlock()
		return ErrUnknownSession
	}
	if !s.claim(time.Time{}, 0) {
		parked := s.Recovered()
		r.mu.Unlock()
		if parked {
			return nil // already parked: the verb is idempotent
		}
		return ErrNotLive
	}
	r.mu.Unlock()
	s.timeline.Record(obs.EventPark, reason)
	s.stop()
	r.metrics.SessionsParked.Add(1)
	r.keep(s)
	return nil
}

// Resume brings a parked (recovered) session back live: a fresh session
// under the same ID, geometry and search configuration, its write-ahead
// log reopened for append (never truncated) with sequence numbers
// continuing past the retained head — so a later retrace replays the
// whole record, pre-park and post-resume, as one stream. Resume is
// gated by the MaxSessions hard cap but not the congestion score: an
// operator resuming a session is explicitly spending headroom.
func (r *Registry) Resume(id string) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.sessions[id]
	switch {
	case r.closed:
		return nil, ErrSessionClosed
	case !ok:
		return nil, ErrUnknownSession
	case !old.Recovered():
		return nil, ErrNotParked
	case r.cfg.WAL == nil:
		return nil, ErrNoWAL
	case r.live.Load() >= int64(r.cfg.MaxSessions):
		r.metrics.Shed.Add(1)
		return nil, ErrSessionLimit
	}
	sweep := time.Duration(old.sweepNs.Load())
	if sweep <= 0 || old.WALSeq() == 0 {
		return nil, ErrNotDurable
	}
	spec := SessionSpec{
		ID:       id,
		Sweep:    sweep,
		Geometry: old.geometry,
		Search:   old.search,
	}
	s := newSession(r, spec, resumeState{from: old.WALSeq(), created: old.Created, timeline: old.timeline})
	r.sessions[id] = s
	r.release(old)
	r.metrics.SessionsResumed.Add(1)
	r.metrics.SessionsActive.Add(1)
	r.logger.Info("session resumed", "session", id, "from_seq", s.resumeFrom)
	return s, nil
}

// ExpireIdle closes sessions idle beyond the timeout (no ingest
// activity, readers or subscribers), returning their IDs. It scans the
// table and claims each idle session (Session.claim, which skips without
// locking whatever is not live or was touched recently), so an attach
// racing the expiry either keeps the session alive or is refused, never
// bound to a session mid-teardown. WAL-backed sessions that recorded
// anything are parked in the registry as "recovered" (the engine is
// reclaimed, the durable record stays serveable); the rest are
// forgotten. idle <= 0 expires nothing.
func (r *Registry) ExpireIdle(now time.Time, idle time.Duration) []string {
	if idle <= 0 {
		return nil
	}
	// The retain decision is snapshotted at the claim, under the registry
	// lock and BEFORE the teardown: stopping appends the log's close
	// record (bumping the head), so deciding afterwards could flip an
	// empty session from forget to retain after its table entry is gone.
	type claimed struct {
		s      *Session
		retain bool
	}
	var expired []claimed
	r.mu.Lock()
	for id, s := range r.sessions {
		if !s.claim(now, idle) {
			continue
		}
		c := claimed{s: s, retain: r.cfg.WAL != nil && s.WALSeq() > 0}
		if !c.retain {
			delete(r.sessions, id)
		}
		expired = append(expired, c)
	}
	r.mu.Unlock()
	ids := make([]string, 0, len(expired))
	for _, c := range expired {
		if c.retain {
			c.s.timeline.Record(obs.EventPark, "idle expiry")
		}
		c.s.stop()
		r.metrics.SessionsExpired.Add(1)
		if c.retain {
			r.keep(c.s)
		} else {
			// A forgotten expiry must not leave an orphan record for the
			// next restart to resurrect.
			r.forget(c.s)
		}
		ids = append(ids, c.s.ID)
	}
	sort.Strings(ids)
	return ids
}

// ExpireRetained forgets recovered sessions whose records have seen no
// retrace or catch-up activity for longer than the retention deadline,
// deleting their logs. retain <= 0 retains forever (the default).
func (r *Registry) ExpireRetained(now time.Time, retain time.Duration) []string {
	if retain <= 0 || r.cfg.WAL == nil {
		return nil
	}
	var victims []*Session
	cutoff := now.Add(-retain).UnixNano()
	r.mu.Lock()
	for id, s := range r.sessions {
		if s.lastActive.Load() > cutoff || !s.Recovered() {
			continue
		}
		delete(r.sessions, id)
		victims = append(victims, s)
	}
	r.mu.Unlock()
	ids := make([]string, 0, len(victims))
	for _, s := range victims {
		r.metrics.SessionsExpired.Add(1)
		r.forget(s)
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return ids
}

// keep parks a stopped, claimed session's record: closing → recovered,
// left in the table to serve retrace and catch-up until it is resumed
// or forgotten. A session the registry dropped mid-teardown (Close) was
// released there and stays gone.
func (r *Registry) keep(s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[s.ID] != s {
		return
	}
	s.emitMu.Lock()
	s.moveLocked(stateRecovered)
	s.emitMu.Unlock()
	r.metrics.SessionsRetained.Add(1)
}

// drop takes a session out of the table if the entry is still its own:
// an unclaimed Session.Close leaves no entry behind to reserve its ID.
func (r *Registry) drop(s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[s.ID] == s {
		delete(r.sessions, s.ID)
	}
}

// release retires a session the table no longer holds: it goes to gone,
// its remaining (catch-up) subscribers end, and a parked record leaves
// the retained gauge. Its log stays on disk.
func (r *Registry) release(s *Session) {
	if s.end() == stateRecovered {
		r.metrics.SessionsRetained.Add(-1)
	}
}

// forget releases a session and deletes its log, so no restart
// resurrects it.
func (r *Registry) forget(s *Session) {
	r.release(s)
	if r.cfg.WAL == nil {
		return
	}
	if err := r.cfg.WAL.Remove(s.ID); err != nil {
		r.logger.Error("wal remove failed", "session", s.ID, "err", err)
	}
}

// Close closes every session and refuses further opens. Retained WAL
// records survive (that is the point: the next daemon recovers them).
// Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sessions := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		sessions = append(sessions, s)
		delete(r.sessions, id)
	}
	r.mu.Unlock()
	for _, s := range sessions {
		// Close stops a live session, or waits out a park or expiry
		// already tearing it down.
		s.Close()
		r.release(s)
	}
}

// validateID enforces the session-ID charset: IDs travel in URL paths
// (GET /v1/sessions/{id}) and the one-line ingest preamble, so
// whitespace, slashes and control bytes would create unaddressable
// sessions.
func validateID(id string) error {
	if len(id) > 64 {
		return fmt.Errorf("%w: id longer than 64 bytes", ErrBadSessionID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("%w: byte %q in %q", ErrBadSessionID, c, id)
		}
	}
	return nil
}

// randomID draws a 12-hex-char session ID.
func randomID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// constant-prefix timestamp if it somehow does.
		return "s" + hex.EncodeToString([]byte(time.Now().Format("150405.000")))[:11]
	}
	return hex.EncodeToString(b[:])
}
