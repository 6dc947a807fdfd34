package server

import (
	"errors"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/obs"
	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// Lifecycle and admission errors, mapped onto HTTP statuses by http.go.
var (
	ErrSessionClosed   = errors.New("server: session closed")
	ErrSessionLimit    = errors.New("server: session limit reached")
	ErrSessionExists   = errors.New("server: session already exists")
	ErrSubscriberLimit = errors.New("server: subscriber limit reached")
	ErrBadSessionID    = errors.New("server: invalid session id")
	ErrNoSweep         = errors.New("server: session has no sweep interval yet")
	// ErrNoWAL reports a durability feature (retrace, ?from catch-up) on
	// a registry or session without a write-ahead log.
	ErrNoWAL = errors.New("server: session has no write-ahead log")
	// Control-plane verb errors (park/resume/drain), mapped by control.go.
	ErrUnknownSession = errors.New("server: unknown session")
	ErrNotLive        = errors.New("server: session is not live")
	ErrNotParked      = errors.New("server: session is not parked")
	ErrNotDurable     = errors.New("server: session has recorded nothing durable")
)

// Session binds one client's tag-set to a tracking engine and fans its
// live output to subscribers. Ingest runs on its callers' goroutines,
// serialized by ingestMu (the engine's serialized-caller contract): each
// OfferBatch resequences, logs and offers its reports before it returns.
// Output events are emitted from engine shard goroutines under emitMu.
// One goroutine of the session's own, the loop, keeps its clock (idle
// drain, stats refresh) and group-commits events to subscribers.
type Session struct {
	ID      string
	Created time.Time
	// geometry names the session's antenna geometry (deploy registry
	// name, "" = default), fixed at open and threaded to the engine
	// factory, the WAL meta, and every replay.
	geometry string
	// search is the session's effective vote-search override (nil =
	// deployment default), fixed at open, recorded in the WAL meta, and
	// applied to recovery, retrace and catch-up replays alike so every
	// rebuild runs the search the live engine ran.
	search *vote.SearchConfig
	// resumeFrom, when nonzero, marks this session as the resumption of
	// a parked record: the log reopens for append and sequence numbers
	// continue from this head.
	resumeFrom uint64

	reg *Registry

	// quit stops the loop; loopDone closes when it has exited.
	quit     chan struct{}
	loopDone chan struct{}
	// stopOnce runs the teardown once; see stop.
	stopOnce sync.Once
	// offersBegun and offersDone count OfferBatch calls as they start
	// and as they return: the loop's idle rule reads input in flight,
	// lock wait included, without taking the ingest lock (see tick).
	offersBegun atomic.Uint64
	offersDone  atomic.Uint64

	// lastActive is the idle-GC clock (unix nanos), touched by ingest,
	// reader attach and subscriber attach.
	lastActive atomic.Int64

	// emitMu is the session lock. It serializes the lifecycle state's
	// transitions, guards the reader and subscriber sets (so every attach
	// is checked against the state it lands in), and the emitter and
	// group-commit state written from engine shard goroutines (OnUpdate),
	// ingest calls and the loop. Lock order: the registry lock, then
	// ingestMu, then this one; shard goroutines take only this one.
	emitMu sync.Mutex
	// state holds a sessionState. It is written only under emitMu but
	// loaded without it, so the registry can scan its table under its own
	// lock without waiting on any session's emit path.
	state   atomic.Uint32
	readers map[net.Conn]struct{}
	subs    map[*Subscriber]struct{}
	// em produces the session's events from its engine's updates (nil on
	// recovered sessions: they have no engine).
	em *emitter
	// Group-commit state (guarded by emitMu except the channel): events
	// bound for subscribers accumulate in emitBuf, the oldest stamped
	// emitEnq; emitKick (cap 1) nudges the loop, which swaps the buffer
	// against emitSpare, builds one batch per tier in each needed form
	// and queues it to every subscriber at that tier. The teardown
	// commits the last batch, end event included, after the loop has
	// exited and before the subscriber sweep. Nil on recovered sessions
	// (no loop).
	emitBuf   []Event
	emitSpare []Event
	emitEnq   int64
	emitKick  chan struct{}
	// emitPace is the loop's fan-out-aware accumulation window in
	// nanoseconds (atomic: written under emitMu, read by the loop before
	// locking). Delivering a batch costs every subscriber a wake and (for
	// a stream writer) a socket write, so at wide fan-out the loop waits
	// this long after a kick before committing, letting the batch grow
	// and amortizing the per-subscriber cost; at small fan-out the window
	// rounds to zero and every event flushes immediately.
	emitPace atomic.Int64

	// ingestMu serializes ingest: OfferBatch, cadence announcements,
	// drains (Flush, the catch-up attach, retrace's head snapshot, the
	// loop's idle tick) and the teardown's final drain. It guards the
	// state below, and only the loop and ingest callers take it: nothing
	// holding the registry lock or emitMu does, so an engine Offer
	// blocked on a full shard under it cannot deadlock.
	ingestMu sync.Mutex
	// stopped is set by the teardown under ingestMu; later ingest calls
	// and drains fail with ErrSessionClosed. Recovered sessions are born
	// stopped.
	stopped bool
	eng     *engine.Engine
	// sweep is the cadence the spec recorded at open, until the first
	// engine build consumes it (see startEngineLocked).
	sweep   time.Duration
	reorder reportHeap
	maxSeen time.Duration
	pushSeq uint64
	// log is the session's write-ahead record of the canonical
	// resequenced report stream (nil without a data dir); engineDirty
	// tracks whether any report reached the engine since the last drain,
	// making drains — and their logged flush records — idempotent.
	log         *wal.Log
	engineDirty bool
	// released collects what the reorder buffer releases during one
	// ingest call or drain, and offerBuf holds its reports for the
	// engine; handOff empties both at the call's end (reused buffers).
	released []orderedReport
	offerBuf []rfid.Report

	// walSeq is the log's head sequence number: incremented under
	// ingestMu as records are appended, read by retrace and catch-up
	// snapshots.
	walSeq atomic.Uint64
	// walBytes mirrors the log's on-disk size (refreshed with the stats
	// snapshot) for the cost meter's WAL-bandwidth rate.
	walBytes atomic.Int64
	// cost turns the session's counters into demand rates (see cost.go).
	cost costMeter
	// sweepNs mirrors the engine's sweep cadence for readers outside the
	// ingest lock (retrace and catch-up need it to rebuild the pipeline).
	sweepNs atomic.Int64

	// statsMu guards the last engine stats snapshot refreshStats takes.
	statsMu   sync.Mutex
	lastStats []engine.TagStats

	// counters (atomic: read by HTTP handlers and metrics).
	reports atomic.Int64
	points  atomic.Int64
	glyphs  atomic.Int64
	drops   atomic.Int64
	// tierDowngrades counts adaptive tier step-downs across the session's
	// subscribers: the fan-out pressure signal the cost meter turns into
	// a demand rate for admission.
	tierDowngrades atomic.Int64
	searchEvals    atomic.Int64
	resyncs        atomic.Int64
	outOfOrder     atomic.Int64
	// reorderLate counts reports that arrived after their reorder-window
	// slot had already been released to the engine: the resequencer can
	// no longer place them before already-delivered later reports, so
	// they reach the engine late (clock skew beyond ReorderWindow).
	reorderLate atomic.Int64
	// hypothesis-set sums over the session's tags, refreshed with the
	// stats snapshot: active hypotheses (gauge) plus cumulative leader
	// switches and retirements.
	hypotheses     atomic.Int64
	leaderSwitches atomic.Int64
	retirements    atomic.Int64

	// logger carries the session-scoped structured logger.
	logger *slog.Logger
	// stripe spreads this session's histogram stamps across the shared
	// pipeline's counter stripes.
	stripe int
	// timeline is the session's bounded diagnostic event ring; it
	// survives park/resume (carried through resumeState).
	timeline *obs.Timeline
	// spans retains sampled stage-by-stage report traces (trace_sample_n
	// control knob; GET /v1/sessions/{id}/trace).
	spans *obs.SpanRing
	// openSpan is the in-flight sampled span: the ingest call publishes
	// it at reorder release, the emitting shard goroutine completes it.
	// Each span leaves the slot and enters spans under spanMu, so the
	// ring holds spans in the order their reports were released; the
	// shard reads the slot without the lock first, as most updates find
	// it empty.
	openSpan atomic.Pointer[obs.Span]
	spanMu   sync.Mutex
	// lastArrival/lastRelease hand the most recently released report's
	// stamps to onUpdate, which swaps them to zero so each release is
	// observed once in the emit and end-to-end histograms.
	lastArrival atomic.Int64
	lastRelease atomic.Int64
	// sampleCount is the released-report counter for 1-in-N span
	// sampling (under ingestMu).
	sampleCount uint64
	// walSegs tracks the log's segment count so rotations surface on the
	// timeline (under ingestMu).
	walSegs int
}

// resumeState carries what a resumed session inherits from the parked
// record it continues: the retained log head its sequence numbers pick
// up after, and the original creation time.
type resumeState struct {
	from    uint64
	created time.Time
	// timeline, when non-nil, is the parked record's diagnostic ring: the
	// resumed session keeps appending to it so the park/resume history
	// reads as one timeline.
	timeline *obs.Timeline
}

// newSession builds a live session and starts its loop. It runs under
// the registry lock, so it only records the spec's sweep: the loop, or
// an ingest call that takes the ingest lock first, builds the engine.
func newSession(reg *Registry, spec SessionSpec, resume resumeState) *Session {
	s := sessionShell(reg, spec, resume)
	go s.loop()
	return s
}

// sessionShell builds a live session's state, taking a MaxSessions
// slot, without starting its loop.
func sessionShell(reg *Registry, spec SessionSpec, resume resumeState) *Session {
	reg.live.Add(1)
	s := &Session{
		ID:         spec.ID,
		Created:    time.Now(),
		geometry:   spec.Geometry,
		search:     spec.Search,
		resumeFrom: resume.from,
		reg:        reg,
		quit:       make(chan struct{}),
		loopDone:   make(chan struct{}),
		readers:    map[net.Conn]struct{}{},
		subs:       map[*Subscriber]struct{}{},
		logger:     reg.logger.With("session", spec.ID),
		stripe:     reg.nextStripe(),
		timeline:   resume.timeline,
		spans:      &obs.SpanRing{},
		emitKick:   make(chan struct{}, 1),
		sweep:      spec.Sweep,
	}
	s.em = newEmitter(reg.rec, s.emitLocked)
	if s.timeline == nil {
		s.timeline = &obs.Timeline{}
	}
	if resume.from > 0 {
		if !resume.created.IsZero() {
			s.Created = resume.created
		}
		s.walSeq.Store(resume.from)
		s.timeline.Record(obs.EventResume, "from_seq="+strconv.FormatUint(resume.from, 10))
	} else {
		s.timeline.Record(obs.EventCreate, "geometry="+spec.Geometry)
	}
	s.touch()
	return s
}

// newRecoveredSession rehydrates a closed-but-retained session from its
// WAL at daemon startup: a registry entry with no loop and no engine,
// born stopped, addressable for retrace and ?from catch-up replay.
func newRecoveredSession(reg *Registry, meta wal.Meta, stats wal.Stats) *Session {
	done := make(chan struct{})
	close(done)
	s := &Session{
		ID:       meta.ID,
		Created:  meta.Created,
		geometry: meta.Geometry,
		search:   SearchFromMeta(meta.Search),
		reg:      reg,
		quit:     done,
		loopDone: done,
		stopped:  true,
		readers:  map[net.Conn]struct{}{},
		subs:     map[*Subscriber]struct{}{},
		logger:   reg.logger.With("session", meta.ID),
		stripe:   reg.nextStripe(),
		timeline: &obs.Timeline{},
		spans:    &obs.SpanRing{},
	}
	s.state.Store(uint32(stateRecovered))
	s.stopOnce.Do(func() {}) // its daemon stopped it before the restart
	s.timeline.Record(obs.EventRecover, "last_seq="+strconv.FormatUint(stats.LastSeq, 10))
	s.walSeq.Store(stats.LastSeq)
	s.sweepNs.Store(int64(meta.Sweep))
	s.reports.Store(int64(stats.Reports))
	s.touch()
	return s
}

// Geometry names the session's antenna geometry ("" = default).
func (s *Session) Geometry() string { return s.geometry }

// Search returns a copy of the session's vote-search override (nil =
// deployment default).
func (s *Session) Search() *vote.SearchConfig {
	if s.search == nil {
		return nil
	}
	cp := *s.search
	return &cp
}

// sessionState is a session's lifecycle phase. It changes only under
// the session lock, along these edges:
//
//	live ──claim──▶ closing ──keep──▶ recovered ──release──▶ gone
//	 │                 └───────────release───────────────────▶ gone
//	 └──Close (unclaimed)────────────────────────────────────▶ gone
//
// claim is park or idle expiry taking over the teardown; release is the
// registry dropping the entry (Remove, expiry, Resume, Registry.Close);
// an unclaimed Close drops the entry itself.
// A session rehydrated from its log at startup is born recovered.
type sessionState uint8

const (
	// stateLive: loop and engine run; every attach is admitted.
	stateLive sessionState = iota
	// stateClosing: park or idle expiry claimed the session and owns its
	// teardown; every attach is refused.
	stateClosing
	// stateRecovered: the session serves its retained log only (retrace
	// and catch-up attaches); no loop, engine or ingest.
	stateRecovered
	// stateGone: closed or forgotten; every attach is refused.
	stateGone
)

// lifecycle reads the session's state; it takes no lock.
func (s *Session) lifecycle() sessionState { return sessionState(s.state.Load()) }

// moveLocked moves the session to state to, giving back its MaxSessions
// slot when it leaves live (no edge leads back: resume builds a new
// session). Caller holds emitMu.
func (s *Session) moveLocked(to sessionState) {
	if s.lifecycle() == stateLive {
		s.reg.live.Add(-1)
	}
	s.state.Store(uint32(to))
}

// Recovered reports whether the session serves from its retained WAL
// only (no live loop or engine).
func (s *Session) Recovered() bool { return s.lifecycle() == stateRecovered }

// Closing reports whether park or idle expiry has claimed the session
// and its teardown is in flight (but not yet parked or removed).
func (s *Session) Closing() bool { return s.lifecycle() == stateClosing }

// State names the session's lifecycle phase for the control API.
func (s *Session) State() string {
	switch s.lifecycle() {
	case stateLive:
		return "live"
	case stateRecovered:
		return "recovered"
	default:
		return "closed"
	}
}

// touch refreshes the idle clock.
func (s *Session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// idleSince returns the last-activity time.
func (s *Session) idleSince() time.Time { return time.Unix(0, s.lastActive.Load()) }

// addReader registers an ingest connection so session close also closes
// the wire. Only a live session admits one: the connection must not be
// bound to an engine mid-teardown.
func (s *Session) addReader(conn net.Conn) error {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if s.lifecycle() != stateLive {
		return ErrSessionClosed
	}
	s.readers[conn] = struct{}{}
	s.touch()
	return nil
}

func (s *Session) removeReader(conn net.Conn) {
	s.emitMu.Lock()
	delete(s.readers, conn)
	s.emitMu.Unlock()
}

// Readers reports the connected reader count.
func (s *Session) Readers() int {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	return len(s.readers)
}

// claim moves a live session to closing for park or idle expiry; from
// that instant every attach refuses, and the claimer owns the teardown.
// With idle > 0 it claims only an expirable session: untouched for
// longer than idle before now and with no reader or subscriber attached.
// A first look at the atomic state and stamp skips, without locking,
// whatever the expiry scan cannot claim; the decision is then re-made
// under the lock the attaches take, so an attach racing the expiry
// (even one that has detached again since the first look) either keeps
// the session alive or is refused. idle 0 claims any live session: park
// disconnects whatever is attached.
func (s *Session) claim(now time.Time, idle time.Duration) bool {
	expirable := func() bool {
		return s.lifecycle() == stateLive && (idle == 0 || now.Sub(s.idleSince()) > idle)
	}
	if !expirable() {
		return false
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if !expirable() || idle > 0 && (len(s.readers) > 0 || len(s.subs) > 0) {
		return false
	}
	s.moveLocked(stateClosing)
	return true
}

// Close tears the session down: an unclaimed live session goes to gone,
// leaves the registry's table (its log, if any, stays on disk) and is
// stopped; a claimed one (park, idle expiry) is stopped if its claimer
// has not got there yet. Idempotent and safe to call concurrently;
// every caller returns after the teardown has completed.
func (s *Session) Close() {
	s.emitMu.Lock()
	unclaimed := s.lifecycle() == stateLive
	if unclaimed {
		s.moveLocked(stateGone)
	}
	s.emitMu.Unlock()
	if unclaimed {
		// The registry lock comes after the session lock is dropped (lock
		// order: registry, then session).
		s.reg.drop(s)
	}
	s.stop()
}

// stop ends a session that has left live (claimed or closed): the loop
// exits, the final drain flushes the engine, the engine and its log
// close, reader connections close, subscribers get everything up to the
// final "end" event before their queues close, and the session's
// counters roll into the registry's retired totals. It runs once; later
// callers wait for it to complete.
func (s *Session) stop() { s.stopOnce.Do(s.teardown) }

func (s *Session) teardown() {
	s.emitMu.Lock()
	conns := make([]net.Conn, 0, len(s.readers))
	for c := range s.readers {
		conns = append(conns, c)
	}
	s.emitMu.Unlock()
	close(s.quit)
	for _, c := range conns {
		c.Close()
	}
	<-s.loopDone
	s.ingestMu.Lock()
	// From here every ingest call and drain fails with ErrSessionClosed;
	// one racing the close either got the lock first, and is drained
	// here, or fails.
	s.stopped = true
	s.drain()
	// Final stats snapshot BEFORE closing the engine: Stats on a closed
	// engine returns nil, which would zero the counters just before they
	// roll into the retired totals below.
	s.refreshStats()
	if s.eng != nil {
		s.eng.Close()
	}
	if s.log != nil {
		// Clean close marker + compaction: the session's record is
		// retained on disk for recovery and retrace.
		if err := s.log.Close(s.walSeq.Add(1)); err != nil {
			s.logger.Error("wal close failed", "err", err)
		}
		s.log = nil
	}
	s.emitMu.Lock()
	s.broadcastLocked(Event{Type: "end"})
	s.emitMu.Unlock()
	s.ingestMu.Unlock()
	// The loop is gone, so commit the last batch, end event included,
	// before ending the subscribers: they get everything.
	s.emitMu.Lock()
	s.flushEmitLocked()
	for sub := range s.subs {
		s.detachLocked(sub)
	}
	s.emitMu.Unlock()
	// Roll the final counts into the monotonic retired counters; Swap
	// prevents double-counting with a concurrent /metrics sum.
	s.reg.metrics.SearchEvalsRetired.Add(s.searchEvals.Swap(0))
	s.reg.metrics.LeaderSwitchesRetired.Add(s.leaderSwitches.Swap(0))
	s.reg.metrics.RetirementsRetired.Add(s.retirements.Swap(0))
	s.hypotheses.Store(0)
	s.reg.metrics.SessionsActive.Add(-1)
	s.reg.metrics.SessionsClosed.Add(1)
}

// end moves the session to gone and ends its remaining subscribers'
// streams, reporting the state it left.
func (s *Session) end() sessionState {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	was := s.lifecycle()
	s.moveLocked(stateGone)
	for sub := range s.subs {
		s.detachLocked(sub)
	}
	return was
}

// Spans returns the session's retained sampled spans, oldest first.
func (s *Session) Spans() []obs.Span { return s.spans.Snapshot() }

// SpanTotal counts every span the session ever sampled.
func (s *Session) SpanTotal() uint64 { return s.spans.Total() }

// Events returns the session's diagnostic timeline, oldest first.
func (s *Session) Events() []obs.TimelineEvent { return s.timeline.Snapshot() }

// EventTotal counts every timeline event ever recorded.
func (s *Session) EventTotal() uint64 { return s.timeline.Total() }

// LastEvent returns the most recent timeline event, if any.
func (s *Session) LastEvent() (obs.TimelineEvent, bool) { return s.timeline.Last() }

// TagStats returns the last per-tag stats snapshot.
func (s *Session) TagStats() []engine.TagStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return append([]engine.TagStats(nil), s.lastStats...)
}
