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
	"rfidraw/internal/realtime"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// ReplayerFactory binds a WAL replay to a fresh tracking pipeline. sweep
// is the recorded session's per-tag cadence; search, when non-nil,
// overrides the deployment's SearchConfig (a retrace under different
// tunables — the record-once/re-trace-many use of the log). record asks
// for batch-equivalent TraceResults (retrace); catch-up feeds leave it
// off so replay memory stays bounded.
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
// recorded history replayed from the WAL — points derived from log
// records with sequence ≥ from (0 = everything) — and, on a live
// session, spliced onto the live event stream at the log head without
// gap or duplicate. The splice is pump-mediated: the pump drains (so
// everything emitted live so far is on disk), admits and attaches the
// subscriber, snapshots the head, and live events park for it until the
// replayed prefix has been delivered. On a recovered session the replay
// ends with an "end" event instead.
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
	req := &catchupReq{sub: sub, head: make(chan uint64, 1)}
	if err := s.enqueue(ingestItem{catchup: req}); err != nil {
		return nil, err
	}
	select {
	case head, ok := <-req.head:
		if !ok {
			return nil, req.err
		}
		go s.runCatchup(sub, from, head, false)
		return sub, nil
	case <-s.pumpDone:
		return nil, ErrSessionClosed
	}
}

// runCatchup is the catch-up subscriber's feeder goroutine: it replays
// the WAL through a fresh pipeline up to head (0 = the whole log),
// delivers the derived points with seq ≥ from, then splices the
// subscriber onto the live stream (or ends it, for recovered sessions).
// It is the sole closer of sub.ch.
func (s *Session) runCatchup(sub *Subscriber, from, head uint64, recovered bool) {
	err := s.feedCatchup(sub, from, head)
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
	if err != nil || recovered {
		// A recovered session has no live stream to splice onto; a
		// failed replay must not silently splice over a gap. Both end
		// the stream.
		select {
		case sub.ch <- Event{Type: "end"}:
		default:
		}
		s.detachLocked(sub)
		return
	}
	// Splice: deliver the live events parked during the replay, then
	// hand the queue over to the broadcast path. Everything parked
	// derives from records past the snapshotted head, so the stream is
	// gapless and duplicate-free across the boundary.
	for _, ev := range sub.pending {
		s.sendLocked(sub, ev)
	}
	sub.pending = nil
}

// feedCatchup replays the log into the subscriber's queue. Sends block
// (the replay is consumer-paced) but abort on detach or session close.
func (s *Session) feedCatchup(sub *Subscriber, from, head uint64) error {
	if head == 0 && !s.Recovered() {
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
	// A T0 catch-up decimates the replayed points in WAL-sequence space
	// (deterministic for any given record) with the live tier's factor;
	// higher tiers replay everything. The tier is fixed at attach for the
	// whole replay — adaptive retuning starts at the live splice.
	decimated := sub.tier == 0
	var sendErr error
	seq := uint64(0)
	rp.OnUpdate = func(u engine.Update) {
		if sendErr != nil {
			return
		}
		for _, p := range u.Positions {
			if seq < from {
				continue
			}
			if decimated && seq%t0DecimateEvery != 0 {
				continue
			}
			select {
			case sub.ch <- pointEvent(u.Tag, p, seq):
			case <-sub.cancel:
				sendErr = errCatchupCancelled
				return
			}
		}
	}
	err = s.reg.cfg.WAL.Replay(s.ID, head, func(rec wal.Record) error {
		seq = rec.Seq
		switch rec.Type {
		case wal.RecordReport:
			if err := rp.Offer(rec.Report); err != nil {
				return err
			}
		case wal.RecordFlush, wal.RecordClose:
			// A tag that fails here stops emitting points, as it did
			// live; the catch-up stream carries on.
			_ = rp.Flush()
		}
		return sendErr
	})
	if err == nil && sendErr == nil {
		_ = rp.Flush()
	}
	if errors.Is(err, errCatchupCancelled) || errors.Is(sendErr, errCatchupCancelled) {
		return nil // detach mid-replay is a clean end, not a failure
	}
	if err != nil {
		return err
	}
	return sendErr
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

// pointEvent converts one replayed position into the event shape the
// live onUpdate path emits, plus its producing log sequence.
func pointEvent(tag string, p realtime.Position, seq uint64) Event {
	return Event{
		Type: "point", Tag: tag, T: p.Time, X: p.Pos.X, Z: p.Pos.Z,
		Confidence: p.Confidence, Hypotheses: p.Hypotheses, Switched: p.Switched,
		Seq: seq,
	}
}

// Retrace replays the session's WAL through a fresh tracking pipeline
// and returns each tag's batch-equivalent TraceResult. With search nil
// the pipeline is configured exactly as the live one, and the results
// are gob-byte-identical to the live trace of the recorded stream (the
// disk round-trip extension of the batch/streaming equivalence gate);
// a non-nil search re-traces the same record under different tunables.
// On a live session the pump drains first, so the retrace covers
// everything ingested before the call.
func (s *Session) Retrace(search *vote.SearchConfig) ([]engine.TagResult, uint64, error) {
	if s.reg.cfg.WAL == nil || s.reg.cfg.NewReplayer == nil {
		return nil, 0, ErrNoWAL
	}
	head := uint64(0)
	if !s.Recovered() {
		// Drain and snapshot the head in one pump step: everything at or
		// below a drain-boundary head is complete and synced on disk,
		// whereas reading walSeq from this goroutine could see a record
		// the pump is mid-write on. A session that closed under us is
		// fine — its log was completed and compacted by the close, so
		// the plain head read is stable.
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
	err = s.reg.cfg.WAL.Replay(s.ID, head, func(rec wal.Record) error {
		last = rec.Seq
		switch rec.Type {
		case wal.RecordReport:
			return rp.Offer(rec.Report)
		case wal.RecordFlush, wal.RecordClose:
			_ = rp.Flush() // a tag's failure is in its Results entry
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// A final flush closes any open sweep; after a log whose last record
	// already was a flush it is a no-op (tracker flush idempotence), so
	// clean and torn logs retrace alike.
	_ = rp.Flush()
	s.reg.metrics.Retraces.Add(1)
	s.timeline.Record(obs.EventRetrace, "head="+strconv.FormatUint(head, 10))
	s.touch() // retention clock: the record is in active use
	return rp.Results(), last, nil
}

// drainHead asks the pump to drain and report the log head at the drain
// boundary.
func (s *Session) drainHead() (uint64, error) {
	ch := make(chan uint64, 1)
	if err := s.enqueue(ingestItem{flushHead: ch}); err != nil {
		return 0, err
	}
	select {
	case h := <-ch:
		return h, nil
	case <-s.pumpDone:
		return 0, ErrSessionClosed
	}
}

// TraceResults returns the live engine's batch-equivalent per-tag trace
// results (sessions whose engines record traces; equivalence tests). It
// round-trips through the pump, draining first.
func (s *Session) TraceResults() ([]engine.TagResult, error) {
	ch := make(chan []engine.TagResult, 1)
	if err := s.enqueue(ingestItem{results: ch}); err != nil {
		return nil, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-s.pumpDone:
		return nil, ErrSessionClosed
	}
}

// WALSeq reports the session's current log head sequence (0 when the
// session records nothing).
func (s *Session) WALSeq() uint64 { return s.walSeq.Load() }
