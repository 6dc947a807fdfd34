package server

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/obs"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// ReplayerFactory binds a WAL replay to a fresh tracking pipeline. sweep
// is the recorded session's per-tag cadence; search, when non-nil,
// overrides the deployment's SearchConfig (a retrace under different
// tunables — the record-once/re-trace-many use of the log). record asks
// for each tag's batch-equivalent TraceResult (retrace); catch-up feeds
// leave it off so replay memory stays bounded.
// geometry names the recorded session's antenna geometry (from the WAL
// meta; "" = default) so the replay positions with the same steering
// tables the live session used.
type ReplayerFactory func(sweep time.Duration, geometry string, search *vote.SearchConfig, record bool) (*engine.Replayer, error)

// SystemFor resolves the positioning system a session on the named
// antenna geometry ("" is "default") with an optional search override
// traces with: base's writing plane and tunables on that geometry's
// deployment (built with base's carrier and link) and search region,
// with the override applied to both voting and tracing. The default
// geometry without an override is base itself. Live engine factories,
// WAL replayers and offline re-tracing all resolve through here, so a
// recorded session rebuilds the pipeline it ran live.
func SystemFor(base *core.System, geometry string, search *vote.SearchConfig) (*core.System, error) {
	if geometry == "" {
		geometry = "default"
	}
	if geometry == "default" && search == nil {
		return base, nil
	}
	dep := base.Deployment()
	cfg := base.Config()
	if geometry != "default" {
		spec, err := deploy.GeometryByName(geometry)
		if err != nil {
			return nil, err
		}
		if dep, err = spec.Build(dep.Carrier, dep.Link); err != nil {
			return nil, err
		}
		cfg.Region = spec.Region()
	}
	if search != nil {
		cfg.Vote.Search = *search
		cfg.Trace.Search = *search
	}
	return core.NewSystem(dep, cfg)
}

// ReplayLog feeds a recorded session's log, up to head (0 = all of it),
// through rp the way the live session fed its engine: each report is
// offered, each flush or close record closes the open sweeps, and a
// final flush closes whatever a torn or still-open log left open (a
// no-op after a log whose last record already was a flush, so clean and
// torn logs replay alike). each, when non-nil, sees every record before
// it is applied. An error from each, an offer or the log read stops the
// replay and is returned; a tag whose flush fails carries the failure
// in its Results entry and stops emitting, as it did live.
func ReplayLog(store *wal.Store, id string, head uint64, rp *engine.Replayer, each func(wal.Record) error) error {
	err := store.Replay(id, head, func(rec wal.Record) error {
		if each != nil {
			if err := each(rec); err != nil {
				return err
			}
		}
		switch rec.Type {
		case wal.RecordReport:
			return rp.Offer(rec.Report)
		case wal.RecordFlush, wal.RecordClose:
			_ = rp.Flush() // a failing tag carries its error in Results
		}
		return nil
	})
	if err != nil {
		return err
	}
	_ = rp.Flush() // as above
	return nil
}

// searchToMeta / SearchFromMeta map a session's search override onto
// the WAL meta encoding (Mode 0 = none, 1 = hierarchical, 2 = dense):
// the record must carry the search it was traced under, or recovery and
// retrace would rebuild a different pipeline than the live engine ran.
func searchToMeta(sc *vote.SearchConfig) wal.SearchMeta {
	if sc == nil {
		return wal.SearchMeta{}
	}
	m := wal.SearchMeta{TopK: uint8(sc.TopK), Levels: uint8(sc.Levels)}
	if sc.Mode == vote.SearchDense {
		m.Mode = 2
	} else {
		m.Mode = 1
	}
	return m
}

// SearchFromMeta decodes a recorded session's search override; nil means
// the deployment default.
func SearchFromMeta(m wal.SearchMeta) *vote.SearchConfig {
	if m.Mode == 0 {
		return nil
	}
	sc := &vote.SearchConfig{TopK: int(m.TopK), Levels: int(m.Levels)}
	if m.Mode == 2 {
		sc.Mode = vote.SearchDense
	}
	return sc
}

// SubscribeFrom attaches a catch-up consumer: it is fed the session's
// recorded history replayed from the WAL — the events of its tier that
// log records with sequence ≥ from (0 = everything) produced live — and,
// on a live session, spliced onto the live event stream at the log head
// without gap or duplicate. The splice runs under the ingest lock: a
// drain (so everything emitted live so far is on disk), the admission
// and attach, and the head snapshot; live events then park for the
// subscriber until the replayed prefix has been delivered. On a
// recovered session the replay ends with an "end" event instead.
func (s *Session) SubscribeFrom(from uint64, o SubscribeOptions) (*Subscriber, error) {
	if s.reg.cfg.WAL == nil || s.reg.cfg.NewReplayer == nil {
		return nil, ErrNoWAL
	}
	sub := s.newSubscriber(o, true)
	if s.Recovered() {
		s.emitMu.Lock()
		err := s.attachLocked(sub)
		s.emitMu.Unlock()
		if err != nil {
			return nil, err
		}
		go s.runCatchup(sub, from, 0, true)
		return sub, nil
	}
	// The attach runs under the ingest lock right after a drain, so the
	// head the subscriber snapshots exactly covers everything already
	// emitted to live subscribers: every event after the attach derives
	// from records past the head. An attach mid-stroke thus ends the
	// stroke, live and in the replay.
	s.ingestMu.Lock()
	head, err := s.drainHeadLocked()
	if err == nil {
		s.emitMu.Lock()
		err = s.attachLocked(sub)
		s.emitMu.Unlock()
	}
	s.ingestMu.Unlock()
	if err != nil {
		return nil, err
	}
	go s.runCatchup(sub, from, head, false)
	return sub, nil
}

// runCatchup is the catch-up subscriber's feeder goroutine: it replays
// the WAL through a fresh pipeline up to head (0 = the whole log),
// delivers the events records with seq ≥ from produced, then splices the
// subscriber onto the live stream, or ends it when replayOnly (a
// recovered session has no live stream). It is the sole closer of
// sub.ch.
func (s *Session) runCatchup(sub *Subscriber, from, head uint64, replayOnly bool) {
	err := s.feedCatchup(sub, from, head, replayOnly)
	if err != nil {
		s.logger.Warn("catch-up replay failed", "err", err)
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if _, in := s.subs[sub]; !in {
		// Detached (or session closed) mid-replay: the accounting is
		// done, only the channel is ours to close.
		close(sub.ch)
		return
	}
	sub.catchingUp = false
	if err != nil || replayOnly {
		// A recovered session has no live stream to splice onto; a
		// failed replay must not silently splice over a gap. Both end
		// the stream.
		select {
		case sub.ch <- notice(Event{Type: "end"}, sub.enc):
		default:
		}
		s.detachLocked(sub)
		return
	}
	// Splice: deliver the live batches parked during the replay, then
	// hand the queue over to the broadcast path. Everything parked
	// derives from records past the snapshotted head, so the stream is
	// gapless and duplicate-free across the boundary.
	for _, b := range sub.pending {
		s.sendLocked(sub, b)
	}
	sub.pending = nil
}

// feedCatchup replays the log into the subscriber's queue through a
// private emitter, so the subscriber gets the live events of its tier,
// each point stamped with the sequence of the record that produced it.
// The tier is the one fixed at attach; adaptive retuning starts at the
// splice. Each replayed record's events are one queue item. Sends block
// (the replay is consumer-paced) but abort on detach or session close.
func (s *Session) feedCatchup(sub *Subscriber, from, head uint64, replayOnly bool) error {
	if head == 0 && !replayOnly {
		return nil // nothing recorded yet; splice immediately
	}
	sweep := time.Duration(s.sweepNs.Load())
	if sweep <= 0 {
		return nil // no engine was ever built; nothing to replay
	}
	rp, err := s.reg.cfg.NewReplayer(sweep, s.geometry, s.search, false)
	if err != nil {
		return err
	}
	tier := sub.tier
	var seq uint64
	b := &eventBatch{}
	em := newEmitter(s.reg.rec, func(ev Event) {
		if seq < from || ev.minTier > tier {
			return
		}
		if ev.Type == "point" {
			ev.Seq = seq
		}
		b.add(ev, sub.enc)
	})
	rp.OnUpdate = em.update
	send := func() error {
		if b.n == 0 {
			return nil
		}
		select {
		case sub.ch <- b:
			b = &eventBatch{}
			return nil
		case <-sub.cancel:
			return errCatchupCancelled
		}
	}
	// A flush or close record is a drain, which closed the live strokes
	// once the flush's positions were out: the replay closes its strokes
	// before the record after it, and after the replay's final flush.
	boundary := false
	err = ReplayLog(s.reg.cfg.WAL, s.ID, head, rp, func(rec wal.Record) error {
		if boundary {
			em.closeStrokes()
		}
		seq, boundary = rec.Seq, rec.Type != wal.RecordReport
		return send()
	})
	if err == nil {
		em.closeStrokes()
		err = send()
	}
	if errors.Is(err, errCatchupCancelled) {
		return nil // detach mid-replay is a clean end, not a failure
	}
	return err
}

var errCatchupCancelled = errors.New("server: catch-up cancelled")

// effectiveSearch resolves a retrace's search: an explicit override
// wins; otherwise the session's own configuration, so a plain retrace of
// a session opened with a search override is byte-identical to its live
// trace rather than silently reverting to the deployment default.
func (s *Session) effectiveSearch(override *vote.SearchConfig) *vote.SearchConfig {
	if override != nil {
		return override
	}
	return s.search
}

// Retrace replays the session's WAL through a fresh tracking pipeline
// and returns each tag's batch-equivalent TraceResult. With search nil
// the pipeline is configured exactly as the live one, and the results
// are gob-byte-identical to the live trace of the recorded stream (the
// disk round-trip extension of the batch/streaming equivalence gate);
// a non-nil search re-traces the same record under different tunables.
// On a live session it drains first, so the retrace covers everything
// ingested before the call. An override is bounded like a
// session's own search (ErrBadSpec otherwise).
func (s *Session) Retrace(search *vote.SearchConfig) ([]engine.TagResult, uint64, error) {
	if search != nil {
		if err := validateSearch(search); err != nil {
			return nil, 0, err
		}
	}
	if s.reg.cfg.WAL == nil || s.reg.cfg.NewReplayer == nil {
		return nil, 0, ErrNoWAL
	}
	head := uint64(0)
	if !s.Recovered() {
		// Drain and snapshot the head under one hold of the ingest lock:
		// everything at or below a drain-boundary head is complete and
		// synced on disk, whereas reading walSeq without the lock could
		// see a record an ingest call is mid-write on. A session that
		// closed under us is fine — its log was completed and compacted
		// by the close, so the plain head read is stable.
		h, err := s.drainHead()
		if errors.Is(err, ErrSessionClosed) {
			h = s.walSeq.Load()
		} else if err != nil {
			return nil, 0, err
		}
		head = h
		if head == 0 {
			return nil, 0, fmt.Errorf("server: session %s has recorded nothing", s.ID)
		}
	}
	sweep := time.Duration(s.sweepNs.Load())
	if sweep <= 0 {
		return nil, 0, fmt.Errorf("server: session %s has recorded nothing", s.ID)
	}
	rp, err := s.reg.cfg.NewReplayer(sweep, s.geometry, s.effectiveSearch(search), true)
	if err != nil {
		return nil, 0, err
	}
	var last uint64
	err = ReplayLog(s.reg.cfg.WAL, s.ID, head, rp, func(rec wal.Record) error {
		last = rec.Seq
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	s.reg.metrics.Retraces.Add(1)
	s.timeline.Record(obs.EventRetrace, "head="+strconv.FormatUint(head, 10))
	s.touch() // retention clock: the record is in active use
	return rp.Results(), last, nil
}

// WALSeq reports the session's current log head sequence (0 when the
// session records nothing).
func (s *Session) WALSeq() uint64 { return s.walSeq.Load() }
