package server

import (
	"strconv"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/rfid"
	"rfidraw/internal/wal"
)

// loopTick is the session loop's housekeeping period: idle detection
// (drain + sweep close after ~2 silent ticks) and stats refresh cadence.
const loopTick = 50 * time.Millisecond

// statsEvery refreshes the engine stats snapshot every N loop ticks.
const statsEvery = 10

// Offer feeds one phase report into the session: a one-report
// OfferBatch.
func (s *Session) Offer(rep rfid.Report) error {
	return s.OfferBatch([]rfid.Report{rep})
}

// OfferBatch feeds a batch of phase reports into the session on the
// caller's goroutine: under the ingest lock it resequences them, logs and
// commits what the reorder buffer releases, and offers that to the
// engine, so the batch is on disk (with a log) and with the engine when
// OfferBatch returns. It keeps no reference to reps. It blocks while
// another ingest call or a drain holds the lock, or while the engine's
// shards are full (backpressure), and fails once the session closes.
// Reports should be non-decreasing in time per reader; cross-reader skew
// up to the reorder window is resequenced, and how a stream is cut into
// batches changes nothing downstream.
func (s *Session) OfferBatch(reps []rfid.Report) error {
	if len(reps) == 0 {
		return nil
	}
	// From here until it returns the call is input in flight: the loop's
	// idle rule does not drain under it (see tick).
	s.offersBegun.Add(1)
	defer s.offersDone.Add(1)
	arr := obs.Now()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.stopped {
		return ErrSessionClosed
	}
	now := obs.Now()
	n := len(reps)
	s.reg.pipeline.ObserveStageN(obs.StageIngest, now-arr, n, s.stripe)
	s.reg.pipeline.ObserveBurst(n)
	s.touch()
	s.reports.Add(int64(n))
	s.reg.metrics.Reports.Add(int64(n))
	s.startEngineLocked(0)
	if s.eng == nil {
		// No cadence announced yet (defensive: the gateway always sends
		// the Hello first). Drop rather than grow without bound.
		return nil
	}
	for _, rep := range reps {
		s.resequence(rep, arr, now)
	}
	s.handOff()
	return nil
}

// announceSweep tells the session its reader cadence (idempotent; the
// first cadence the session learns builds the engine).
func (s *Session) announceSweep(sweep time.Duration) error {
	if sweep <= 0 {
		return ErrNoSweep
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.stopped {
		return ErrSessionClosed
	}
	s.startEngineLocked(sweep)
	return nil
}

// Flush drains the reorder buffer and closes the engine's current sweeps
// and the open strokes, emitting any final positions and glyphs, before
// it returns. Flush is idempotent and safe to race the loop's own idle
// drain and Close: with nothing ingested since the previous drain it is
// a no-op (each sweep closes exactly once — see drain and the realtime
// tracker's own flush guard).
func (s *Session) Flush() error {
	_, err := s.drainHead()
	return err
}

// drainHead drains under the ingest lock and returns the log head at the
// drain boundary: the only head retrace and catch-up may trust, since
// the next ingest call appends the instant the lock is free.
func (s *Session) drainHead() (uint64, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.drainHeadLocked()
}

// drainHeadLocked is drainHead's body; the caller holds ingestMu.
func (s *Session) drainHeadLocked() (uint64, error) {
	if s.stopped {
		return 0, ErrSessionClosed
	}
	s.startEngineLocked(0)
	s.drain()
	s.refreshStats()
	return s.walSeq.Load(), nil
}

// loop is the session's one goroutine. It keeps the clock (the idle
// drain and the stats refresh, see tick) and group-commits the events
// the engine's shards buffer for subscribers: kicked by broadcastLocked,
// it lets the batch grow for the fan-out pace, then flushes it. While it
// encodes and delivers a batch, later events pile into the next one, so
// batch size adapts to load and an idle stream still flushes every event
// at once. It builds the engine first, outside the registry lock that
// newSession runs under, unless an ingest call holds the ingest lock:
// every holder builds it itself, and the loop must not wait behind a
// stream of offers while events pile up uncommitted.
func (s *Session) loop() {
	defer close(s.loopDone)
	if s.ingestMu.TryLock() {
		s.startEngineLocked(0)
		s.ingestMu.Unlock()
	}
	ticker := time.NewTicker(loopTick)
	defer ticker.Stop()
	var clock loopClock
	for {
		select {
		case <-s.emitKick:
			if !s.pace() {
				return
			}
			s.emitMu.Lock()
			s.flushEmitLocked()
			s.emitMu.Unlock()
		case <-ticker.C:
			s.tick(&clock)
		case <-s.quit:
			// The teardown drains, closes the engine and the log, and
			// flushes the end event itself.
			return
		}
	}
}

// pace holds a kicked group commit for the fan-out pace (see
// emitPacePerSub), reporting false when the session closes meanwhile.
func (s *Session) pace() bool {
	p := s.emitPace.Load()
	if p < int64(emitPaceMin) {
		return true
	}
	t := time.NewTimer(time.Duration(p))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.quit:
		return false
	}
}

// loopClock is the loop's tick bookkeeping: consecutive idle ticks, the
// offers completed as of the last tick, and the tick count behind the
// stats cadence.
type loopClock struct {
	idle, ticks int
	offers      uint64
}

// tick runs the loop's housekeeping for one ticker tick. Two idle ticks
// in a row (~100 ms of ingest silence: the stream paused or ended) drain
// the reorder buffer and close open sweeps and strokes, so the last
// positions and glyphs reach subscribers. An offer is input from its
// call, lock wait included, to its return: a tick that finds one in
// flight resets the count, and one that finds an offer completed since
// the last tick is the first idle tick. An offer can wait on the lock,
// or on a full engine shard, for several tick periods, and a drain there
// would close open sweeps mid-word; the drain re-checks under the lock
// that no offer began since the tick looked.
func (s *Session) tick(c *loopClock) {
	c.ticks++
	begun, done := s.offersBegun.Load(), s.offersDone.Load()
	switch {
	case begun != done:
		c.idle = 0
	case done != c.offers:
		c.idle, c.offers = 1, done
	default:
		c.idle++
	}
	drain, stats := c.idle == 2, c.ticks%statsEvery == 0
	if !drain && !stats {
		return
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.stopped {
		return
	}
	if drain && s.offersBegun.Load() == begun {
		s.drain()
	}
	if stats {
		s.refreshStats()
	}
}

// startEngineLocked builds the engine from the first cadence the session
// learns: the spec's, recorded at open, wins over a reader's
// announcement; later announcements (reader reconnects) keep it. A
// failed build is retried only on the next announcement. With a WAL
// store configured, the session's log opens here — the sweep cadence is
// part of its meta, and reports cannot reach the engine (or the log)
// before it is known. Requires ingestMu.
func (s *Session) startEngineLocked(announced time.Duration) {
	if s.eng != nil {
		return
	}
	sweep := s.sweep
	s.sweep = 0
	if sweep <= 0 {
		sweep = announced
	}
	if sweep <= 0 {
		return
	}
	eng, err := s.reg.cfg.NewEngine(sweep, s.geometry, s.search, s.onUpdate)
	if err != nil {
		s.logger.Error("engine build failed", "err", err)
		return
	}
	s.eng = eng
	s.sweepNs.Store(int64(sweep))
	if st := s.reg.cfg.WAL; st != nil {
		meta := wal.Meta{
			ID: s.ID, Created: s.Created, Sweep: sweep,
			Geometry: s.geometry, Search: searchToMeta(s.search),
		}
		var log *wal.Log
		if s.resumeFrom > 0 {
			// Resuming a parked record: reopen for append — never
			// truncate — so the retained prefix and everything the resumed
			// session logs replay as one stream.
			log, err = st.AppendTo(meta)
		} else {
			log, err = st.Create(meta)
		}
		if err != nil {
			s.logger.Error("wal open failed", "err", err)
			return
		}
		s.log = log
		s.walBytes.Store(log.Bytes())
		s.walSegs = log.Segments()
	}
}

// resequence pushes one report through the reorder heap and releases
// everything older than the hold window, in time order, to the batch the
// call's handOff gives the engine. arr is the call's entry stamp and
// pushed its lock-taken stamp, shared by all its reports.
func (s *Session) resequence(rep rfid.Report, arr, pushed int64) {
	hold := s.reg.cfg.ReorderWindow
	if s.maxSeen >= hold && rep.Time <= s.maxSeen-hold {
		// The resequencer already released this report's time slot: later
		// reports have been delivered, so it will reach the engine out of
		// order (a reader's clock runs behind by more than the window).
		// It is still delivered — and logged — so live and replay stay
		// identical; the counter is the visibility the window breach
		// otherwise lacks.
		s.reorderLate.Add(1)
		s.reg.metrics.ReorderLate.Add(1)
	}
	s.pushSeq++
	s.reorder.push(orderedReport{rep: rep, seq: s.pushSeq, arr: arr, pushed: pushed})
	if rep.Time > s.maxSeen {
		s.maxSeen = rep.Time
	}
	for s.reorder.Len() > 0 && s.reorder.min().Time <= s.maxSeen-hold {
		s.released = append(s.released, s.reorder.pop())
	}
}

// drain releases the whole reorder buffer and closes current sweeps and
// then the open strokes. It is idempotent: with nothing buffered and
// nothing offered since the previous drain it does nothing — in
// particular it does not log a flush record, so racing drain paths (the
// loop's idle tick, an explicit client Flush, a catch-up attach, session
// close) close each sweep exactly once, live and in the WAL replay
// alike. The flush record it logs marks the stroke boundary too, so a
// replay closes strokes exactly where the live session did. Requires
// ingestMu.
func (s *Session) drain() {
	for s.reorder.Len() > 0 {
		s.released = append(s.released, s.reorder.pop())
	}
	s.handOff()
	if s.eng == nil || !s.engineDirty {
		return
	}
	s.engineDirty = false
	if err := s.eng.Flush(); err != nil {
		s.logger.Warn("engine flush failed", "err", err)
	}
	if s.log != nil {
		if err := s.log.AppendFlush(s.walSeq.Add(1)); err != nil {
			s.walFailed(err)
		}
	}
	s.emitMu.Lock()
	s.em.closeStrokes()
	s.emitMu.Unlock()
}

// handOff gives the engine what the reorder buffer released during one
// ingest call or drain, recording it in the WAL first: it appends every
// report's record, commits them with one write, and only then offers the
// reports, one engine message per shard. The log is thus the canonical
// stream — exactly what the engine consumes, in the order it consumes
// it. Two rules hold: no report reaches the engine before its record is
// written, so a process crash loses no record of a traced report; and no
// record stays pending between calls, so drains, catch-ups, retraces and
// parks read complete files. The release, WAL-done and offer-done stamps
// are taken once per batch: each report observes its own reorder wait,
// the WAL-append and engine-offer intervals are observed once with the
// batch's weight, and 1-in-N reports open a sampled span, carrying the
// report's own record seq, that the emitting shard goroutine completes.
// Requires ingestMu.
func (s *Session) handOff() {
	batch := s.released
	if len(batch) == 0 {
		return
	}
	release := obs.Now()
	head := s.walSeq.Load()
	reps := s.offerBuf[:0]
	for _, or := range batch {
		reps = append(reps, or.rep)
		if s.log != nil {
			if err := s.log.AppendReport(s.walSeq.Add(1), or.rep); err != nil {
				s.walFailed(err)
			}
		}
	}
	if s.log != nil {
		if err := s.log.Commit(); err != nil {
			s.walFailed(err)
		}
	}
	walDone := obs.Now()
	s.engineDirty = true
	if err := s.eng.Offer(reps...); err != nil {
		s.logger.Warn("engine offer failed", "err", err)
	}
	offerDone := obs.Now()
	// Hand the release to the emit path; the shard goroutine that next
	// produces positions swaps these back to zero so the emit and
	// end-to-end histograms see each release window once.
	s.lastArrival.Store(batch[len(batch)-1].arr)
	s.lastRelease.Store(offerDone)
	logged := s.walSeq.Load()
	s.reg.pipeline.ObserveStageN(obs.StageWALAppend, walDone-release, len(batch), s.stripe)
	s.reg.pipeline.ObserveStageN(obs.StageEngineOffer, offerDone-walDone, len(batch), s.stripe)
	n := s.reg.knobs.Load().TraceSampleN
	for i, or := range batch {
		s.reg.pipeline.ObserveStage(obs.StageReorder, release-or.pushed, s.stripe)
		s.sampleCount++
		if n > 0 && s.sampleCount%uint64(n) == 0 {
			s.openSampledSpan(or, min(head+uint64(i)+1, logged), release, walDone, offerDone)
		}
	}
	s.offerBuf = reps[:0]
	s.released = batch[:0]
}

// openSampledSpan publishes a sampled report's span for the emitting
// shard goroutine to complete. seq is the report's own WAL record (the
// head, unchanged, when the session logs nothing).
func (s *Session) openSampledSpan(or orderedReport, seq uint64, release, walDone, offerDone int64) {
	sp := &obs.Span{
		Seq:       seq,
		T:         int64(or.rep.Time),
		Wall:      time.Now().UnixNano(),
		IngestNs:  or.pushed - or.arr,
		ReorderNs: release - or.pushed,
		WALNs:     walDone - release,
		OfferNs:   offerDone - walDone,
		Arrival:   or.arr,
		Release:   offerDone,
	}
	s.spanMu.Lock()
	if old := s.openSpan.Swap(sp); old != nil {
		// The previous sampled report never produced an emission
		// (aggregated away); record it without emit/total timing.
		s.spans.Add(*old)
	}
	s.spanMu.Unlock()
}

// walFailed abandons a session's log after a write error: tracing
// continues, durability for this session stops (and is surfaced), rather
// than spamming a failing disk on every report. Requires ingestMu.
func (s *Session) walFailed(err error) {
	s.logger.Error("wal append failed; disabling durability for this session", "err", err)
	s.log.Abandon()
	s.log = nil
	s.reg.metrics.WALFailures.Add(1)
}

// refreshStats snapshots per-tag engine stats (under ingestMu, per the
// engine's Stats contract) for the HTTP info endpoint and the
// search-evals metric.
func (s *Session) refreshStats() {
	if s.log != nil {
		s.walBytes.Store(s.log.Bytes())
		if segs := s.log.Segments(); segs > s.walSegs {
			s.timeline.Record(obs.EventWALRotate, "segments="+strconv.Itoa(segs))
			s.walSegs = segs
		}
	}
	if s.eng == nil {
		return
	}
	stats := s.eng.Stats()
	var evals, hyps, switches, retire int64
	for _, st := range stats {
		evals += int64(st.SearchEvals)
		hyps += int64(st.Hypotheses)
		switches += int64(st.LeaderSwitches)
		retire += int64(st.Retirements)
	}
	s.searchEvals.Store(evals)
	s.hypotheses.Store(hyps)
	s.leaderSwitches.Store(switches)
	s.retirements.Store(retire)
	s.statsMu.Lock()
	s.lastStats = stats
	s.statsMu.Unlock()
}

// orderedReport is one reorder-buffer entry: the report plus its arrival
// sequence within the session (the final tie-breaker) and its obs stamps
// (its OfferBatch call's entry and lock-taken stamps) for stage timing.
type orderedReport struct {
	rep    rfid.Report
	seq    uint64
	arr    int64
	pushed int64
}

// reportHeap is a min-heap of reports by (time, reader ID, arrival
// order): the session's small cross-reader resequencing buffer. The tie
// levels matter — a heap is not stable, so ordering by time alone pops
// identically-stamped reports in heap-shape-dependent order, and two
// readers stamping the same timestamp could make a live trace diverge
// from an otherwise identical run (and the per-tag merge order feed
// trackers differently). With ties broken by reader ID then arrival
// sequence the order is strict and total, so the pop order is a
// deterministic function of the input: the stable sort of the arrival
// stream by (time, reader ID). It is a typed binary heap of values, so
// a push or pop boxes nothing.
type reportHeap []orderedReport

func (h reportHeap) Len() int { return len(h) }

func (h reportHeap) less(i, j int) bool {
	if h[i].rep.Time != h[j].rep.Time {
		return h[i].rep.Time < h[j].rep.Time
	}
	if h[i].rep.ReaderID != h[j].rep.ReaderID {
		return h[i].rep.ReaderID < h[j].rep.ReaderID
	}
	return h[i].seq < h[j].seq
}

func (h reportHeap) min() rfid.Report { return h[0].rep }

// push adds r, sifting it up from the last leaf.
func (h *reportHeap) push(r orderedReport) {
	*h = append(*h, r)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the least entry: the last leaf replaces the
// root and sifts down.
func (h *reportHeap) pop() orderedReport {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && q.less(l, least) {
			least = l
		}
		if r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}
