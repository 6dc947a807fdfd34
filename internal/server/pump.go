package server

import (
	"strconv"
	"sync"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/rfid"
	"rfidraw/internal/wal"
)

// burstPool recycles burst slices between the senders (the ingest
// gateway, in-process callers) and the session pump: OfferBatch copies a
// burst into a pooled slice and enqueues it as ONE inbox item; the pump
// drains it and puts the slice back. Pooling keeps the burst path
// allocation-free in steady state.
var burstPool = sync.Pool{New: func() any { b := make([]rfid.Report, 0, 64); return &b }}

// ingestItem is one message on a session's ingest inbox, of one of three
// kinds: a burst of reports, a cadence announcement or a drain.
type ingestItem struct {
	// burst is a batch of reports entering as one channel operation; the
	// pump returns the slice to burstPool after handling every report.
	burst *[]rfid.Report
	// arr is the burst's enqueue stamp (obs monotonic nanos), one for all
	// its reports: the pump observes arr→dequeue as each one's ingest
	// stage.
	arr int64
	// sweep, when positive, announces the reader cadence (from a Hello or
	// from session creation) and triggers lazy engine construction.
	sweep time.Duration
	// drain asks the pump to drain the reorder buffer and close the
	// engine's current sweeps, replying with the log head at the drain
	// boundary — the only head retrace and catch-up may trust, since the
	// pump keeps appending the instant it moves on.
	drain chan uint64
	// attach, on a drain, runs on the pump between the drain and the
	// reply: the catch-up attach (see SubscribeFrom).
	attach func()
}

// ingestBuffer is the per-session ingest inbox depth (bursts); beyond
// it, reader connections block (TCP backpressure).
const ingestBuffer = 1024

// pumpTick is the pump's housekeeping period: idle detection (drain +
// sweep close after ~2 silent ticks) and stats refresh cadence.
const pumpTick = 50 * time.Millisecond

// statsEvery refreshes the engine stats snapshot every N pump ticks.
const statsEvery = 10

// Offer feeds one phase report into the session: a one-report
// OfferBatch.
func (s *Session) Offer(rep rfid.Report) error {
	return s.OfferBatch([]rfid.Report{rep})
}

// OfferBatch feeds a batch of phase reports as a single inbox operation:
// one channel hop for the whole burst instead of one per report, with
// one ingest stamp, taken here, for all of them. The batch is copied into
// a pooled burst slice, so the caller keeps ownership of reps. It blocks
// for backpressure when the inbox is full and fails once the session
// closes. Reports should be non-decreasing in time per reader;
// cross-reader skew up to the reorder window is resequenced, and how a
// stream is cut into batches changes nothing downstream.
func (s *Session) OfferBatch(reps []rfid.Report) error {
	if len(reps) == 0 {
		return nil
	}
	arr := obs.Now()
	bp := burstPool.Get().(*[]rfid.Report)
	*bp = append((*bp)[:0], reps...)
	if err := s.enqueue(ingestItem{burst: bp, arr: arr}); err != nil {
		*bp = (*bp)[:0]
		burstPool.Put(bp)
		return err
	}
	return nil
}

// enqueue pushes one ingest item, preferring the closed signal over the
// buffered inbox so post-close offers fail deterministically.
func (s *Session) enqueue(it ingestItem) error {
	select {
	case <-s.quit:
		return ErrSessionClosed
	default:
	}
	select {
	case s.inbox <- it:
		return nil
	case <-s.quit:
		return ErrSessionClosed
	}
}

// announceSweep tells the session its reader cadence (idempotent; the
// first announcement builds the engine).
func (s *Session) announceSweep(sweep time.Duration) error {
	if sweep <= 0 {
		return ErrNoSweep
	}
	return s.enqueue(ingestItem{sweep: sweep})
}

// Flush drains the reorder buffer and closes the engine's current sweeps
// and the open strokes, emitting any final positions and glyphs. It
// blocks until the pump has done so. Flush is idempotent and safe to
// race the pump's own idle drain and Close: with nothing ingested since
// the previous drain it is a no-op (each sweep closes exactly once — see
// drain and the realtime tracker's own flush guard).
func (s *Session) Flush() error {
	_, err := s.drainHead(nil)
	return err
}

// drainHead asks the pump to drain and reply with the log head at the
// drain boundary; attach, when non-nil, runs on the pump between the
// two.
func (s *Session) drainHead(attach func()) (uint64, error) {
	ch := make(chan uint64, 1)
	if err := s.enqueue(ingestItem{drain: ch, attach: attach}); err != nil {
		return 0, err
	}
	select {
	case h := <-ch:
		return h, nil
	case <-s.pumpDone:
		return 0, ErrSessionClosed
	}
}

// pump is the session's single ingest goroutine: it owns the engine, the
// reorder buffer and the idle-drain logic.
func (s *Session) pump(sweep time.Duration) {
	defer close(s.pumpDone)
	if sweep > 0 {
		s.handleSweep(sweep)
	}
	ticker := time.NewTicker(pumpTick)
	defer ticker.Stop()
	var clock pumpClock
	for {
		select {
		case it := <-s.inbox:
			clock.idle = 0
			s.handle(it)
		case <-ticker.C:
			s.tick(&clock)
		case <-s.quit:
			for {
				select {
				case it := <-s.inbox:
					s.handle(it)
					continue
				default:
				}
				break
			}
			s.drain()
			// Final stats snapshot BEFORE closing the engine: Stats on a
			// closed engine returns nil, which would zero the counters
			// just before Close rolls them into the retired totals.
			s.refreshStats()
			if s.eng != nil {
				s.eng.Close()
			}
			if s.log != nil {
				// Clean close marker + compaction: the session's record
				// is retained on disk for recovery and retrace.
				if err := s.log.Close(s.walSeq.Add(1)); err != nil {
					s.logger.Error("wal close failed", "err", err)
				}
				s.log = nil
			}
			s.emitMu.Lock()
			s.broadcastLocked(Event{Type: "end"})
			s.emitMu.Unlock()
			return
		}
	}
}

// pumpClock is the pump's tick bookkeeping: consecutive idle ticks and
// the tick count behind the stats cadence.
type pumpClock struct{ idle, ticks int }

// tick runs the pump's housekeeping for one ticker tick. Two idle ticks
// in a row (~100 ms of ingest silence: the stream paused or ended) drain
// the reorder buffer and close open sweeps and strokes, so the last
// positions and glyphs reach subscribers. Only a tick that finds the
// inbox empty counts as idle: one burst or a stats refresh can hold the
// pump on a full engine queue for several tick periods, select may then
// take the ticker twice in a row while input waits, and a drain there
// would close open sweeps mid-word.
func (s *Session) tick(c *pumpClock) {
	c.ticks++
	if len(s.inbox) == 0 {
		c.idle++
		if c.idle == 2 {
			s.drain()
		}
	}
	if c.ticks%statsEvery == 0 {
		s.refreshStats()
	}
}

func (s *Session) handle(it ingestItem) {
	switch {
	case it.burst != nil:
		// A whole burst in one inbox item: feed the reorder buffer, hand
		// what it released to the log and the engine at once, then
		// recycle the slice.
		for _, rep := range *it.burst {
			s.handleReport(rep, it.arr)
		}
		s.handOff()
		s.reg.pipeline.ObserveBurst(len(*it.burst))
		*it.burst = (*it.burst)[:0]
		burstPool.Put(it.burst)
	case it.sweep > 0:
		s.handleSweep(it.sweep)
	case it.drain != nil:
		s.drain()
		s.refreshStats()
		if it.attach != nil {
			it.attach()
		}
		it.drain <- s.walSeq.Load()
	}
}

// handleSweep builds the engine on the first cadence announcement;
// later announcements (reader reconnects) keep the original cadence.
// With a WAL store configured, the session's log opens here — the sweep
// cadence is part of its meta, and reports cannot reach the engine (or
// the log) before it is known.
func (s *Session) handleSweep(sweep time.Duration) {
	if s.eng != nil {
		return
	}
	eng, err := s.reg.cfg.NewEngine(sweep, s.geometry, s.search, s.onUpdate)
	if err != nil {
		s.logger.Error("engine build failed", "err", err)
		return
	}
	s.eng, s.sweep = eng, sweep
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

// handleReport resequences one report through the reorder heap and
// releases everything older than the hold window, in time order, to the
// pump's batch for the item's handOff. arr is the report's burst's
// enqueue stamp (zero when the report entered through a path that does
// not stamp, e.g. tests driving the inbox).
func (s *Session) handleReport(rep rfid.Report, arr int64) {
	s.touch()
	s.reports.Add(1)
	s.reg.metrics.Reports.Add(1)
	now := obs.Now()
	if arr > 0 {
		s.reg.pipeline.ObserveStage(obs.StageIngest, now-arr, s.stripe)
	}
	if s.eng == nil {
		// No cadence announced yet (defensive: the gateway always sends
		// the Hello first). Drop rather than grow without bound.
		return
	}
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
	s.reorder.push(orderedReport{rep: rep, seq: s.pushSeq, arr: arr, pushed: now})
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
// pump's idle tick, an explicit client Flush, a catch-up attach, session
// close) close each sweep exactly once, live and in the WAL replay
// alike. The flush record it logs marks the stroke boundary too, so a
// replay closes strokes exactly where the live session did.
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

// handOff gives the engine what the reorder buffer released while the
// pump handled one inbox item, recording it in the WAL first: it appends
// every report's record, commits them with one write, and only then
// offers the reports, one engine message per shard. The log is thus the
// canonical stream — exactly what the engine consumes, in the order it
// consumes it. Two rules hold: no report reaches the engine before its
// record is written, so a process crash loses no record of a traced
// report; and no record stays pending between inbox items, so drains,
// catch-ups, retraces and parks read complete files. The release,
// WAL-done and offer-done stamps are taken once per batch: each report
// observes its own reorder wait and the batch's WAL-append and
// engine-offer intervals, and 1-in-N reports open a sampled span,
// carrying the report's own record seq, that the emitting shard
// goroutine completes.
func (s *Session) handOff() {
	batch := s.released
	if len(batch) == 0 {
		return
	}
	release := obs.Now()
	head := s.walSeq.Load()
	reps := s.offerBuf[:0]
	var arrival int64
	for _, or := range batch {
		reps = append(reps, or.rep)
		if or.arr > 0 {
			arrival = or.arr
		}
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
	if arrival > 0 {
		s.lastArrival.Store(arrival)
	}
	s.lastRelease.Store(offerDone)
	logged := s.walSeq.Load()
	n := s.reg.knobs.Load().TraceSampleN
	for i, or := range batch {
		s.reg.pipeline.ObserveStage(obs.StageReorder, release-or.pushed, s.stripe)
		s.reg.pipeline.ObserveStage(obs.StageWALAppend, walDone-release, s.stripe)
		s.reg.pipeline.ObserveStage(obs.StageEngineOffer, offerDone-walDone, s.stripe)
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
	if or.arr == 0 {
		sp.IngestNs = 0
		sp.Arrival = or.pushed
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
// than spamming a failing disk on every report.
func (s *Session) walFailed(err error) {
	s.logger.Error("wal append failed; disabling durability for this session", "err", err)
	s.log.Abandon()
	s.log = nil
	s.reg.metrics.WALFailures.Add(1)
}

// refreshStats snapshots per-tag engine stats (pump-only, per the
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
// (ingest decode, heap push) for stage timing.
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
