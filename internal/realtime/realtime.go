// Package realtime turns live per-reply phase report streams into a live
// trajectory: the online counterpart of the batch pipeline. It merges the
// two readers' reports into per-sweep samples, runs multi-resolution
// positioning once enough antennas have been heard, and then drives the
// same incremental multi-hypothesis stream (tracing.MultiStream) the
// batch path replays — emitting the current leader's position every
// sweep, the mode a virtual touch screen runs in (§9's cursor
// discussion). Because batch and live share one stepping core, replaying
// a sample stream through a Tracker reproduces System.Trace byte for
// byte; only the schedulers differ.
//
// # Concurrency
//
// A Tracker is the single-tag stage of the live pipeline and is NOT safe
// for concurrent use: it assumes one goroutine feeds it time-ordered
// reports for one tag. Multi-tag tracking stacks on top of it — the
// sharded engine (internal/engine) demultiplexes a mixed-EPC wire stream
// and runs one Tracker per tag on the tag's home shard, so each Tracker
// still sees a single goroutine. Use the engine for anything beyond one
// tag; use a bare Tracker when embedding a single-tag pipeline.
package realtime

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/geom"
	"rfidraw/internal/rfid"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// Position is one live output sample: the leading hypothesis's new
// estimate plus the hypothesis-set signals around it.
type Position struct {
	Time time.Duration
	Pos  geom.Vec2
	// Confidence is the leader's running mean vote (≤ 0, nearer 0 is
	// better); it collapses when tracking is lost (Fig. 10f).
	Confidence float64
	// Switched marks a leadership change at this sample: the over-time
	// disambiguation of §5.2 re-electing a different candidate. The
	// cursor may jump here.
	Switched bool
	// Hypotheses is the number of candidate hypotheses still active.
	Hypotheses int
}

// Config tunes the live tracker.
type Config struct {
	// System is the configured RF-IDraw engine. Required.
	System *core.System
	// SweepInterval is the readers' sweep period (from their Hello).
	SweepInterval time.Duration
	// MaxAcquireBuffer bounds the warmup sample buffer: a tag whose
	// acquisition keeps failing is declared dead once this many samples
	// have been buffered, bounding per-tag memory on serving
	// deployments. Default 400 (~10 s at 25 ms sweeps). Must be at
	// least DefaultWarmupSamples.
	MaxAcquireBuffer int
	// ReacquireVote triggers tracking-loss recovery: when the recent
	// mean vote falls below this threshold the tracker declares the
	// lobe locks lost (e.g. the user left and re-entered the field),
	// drops the hypothesis set and re-runs initial acquisition —
	// re-seeding a fresh MultiStream from the new fix. Votes are ≤ 0;
	// more negative means worse. Default −0.5; set to -Inf to disable.
	ReacquireVote float64
	// RecordTrace keeps every hypothesis's full trajectory in the live
	// stream so TraceResult can materialize the batch-equivalent
	// outcome. Memory then grows with stream length, so it is meant for
	// replays and the batch/streaming equivalence tests, not serving.
	RecordTrace bool
	// Scratch optionally shares a reusable refinement scratch (see
	// vote.Scratch) with the tracker; the engine passes each shard's so
	// all of a shard's tags reuse one. Nil allocates a private scratch.
	// Must only ever be used from the goroutine feeding this tracker.
	Scratch *vote.Scratch
}

// DefaultWarmupSamples is how many merged samples a tracker buffers
// before attempting initial positioning; configuration layers that
// bound the acquisition buffer validate against it.
const DefaultWarmupSamples = 4

// reacquireWindow is how many recent leader votes the tracking-loss
// detector averages.
const reacquireWindow = 8

// Tracker consumes rfid.Reports (from any number of readers) in time order
// and produces live positions.
type Tracker struct {
	cfg Config

	epc     rfid.EPC
	haveEPC bool

	// latest holds each antenna's last phase and its report time, by
	// antenna ID, for the IDs the heard mask marks. other is the latest
	// report time of an antenna ID outside it (haveOther once one
	// arrived): such a report carries no phase a pair reads, but it
	// still makes its sweep non-empty.
	latest    [vote.MaxAntennas]timedPhase
	heard     uint32
	other     time.Duration
	haveOther bool
	nextSweep time.Duration
	// samples is the warmup buffer; acquisition empties it and keeps
	// its capacity.
	samples []tracing.Sample
	// out is the position buffer Offer, Flush and OfferSample return,
	// reused by the next call.
	out []Position
	// dirty records whether any report or sample has arrived since the
	// last Flush; it makes Flush idempotent (see Flush).
	dirty bool

	started bool
	ms      *tracing.MultiStream
	// cands and cstats snapshot the acquisition that seeded the current
	// stream, for TraceResult.
	cstats vote.SearchStats

	recent         voteWindow // recent leader votes, for loss detection
	reacquisitions int
	// evals, switches and retirements accumulate counts from retired
	// streams; the live stream's counts are added on read.
	evals       int
	switches    int
	retirements int
}

type timedPhase struct {
	phase float64
	t     time.Duration
}

// NewTracker builds a live tracker.
func NewTracker(cfg Config) (*Tracker, error) {
	if cfg.System == nil {
		return nil, errors.New("realtime: Config.System is required")
	}
	if cfg.SweepInterval <= 0 {
		return nil, fmt.Errorf("realtime: sweep interval %v must be positive", cfg.SweepInterval)
	}
	if cfg.MaxAcquireBuffer <= 0 {
		cfg.MaxAcquireBuffer = 400
	}
	if cfg.MaxAcquireBuffer < DefaultWarmupSamples {
		return nil, fmt.Errorf("realtime: MaxAcquireBuffer %d must be ≥ the %d-sample warmup",
			cfg.MaxAcquireBuffer, DefaultWarmupSamples)
	}
	if cfg.ReacquireVote == 0 {
		cfg.ReacquireVote = -0.5
	}
	if cfg.Scratch == nil {
		cfg.Scratch = vote.NewScratch()
	}
	return &Tracker{cfg: cfg}, nil
}

// Offer ingests one report and returns any newly estimated positions.
// Reports must arrive in non-decreasing time order across all readers
// (interleaving between readers is fine). The returned slice is the
// tracker's buffer: it stays valid until the tracker's next call.
func (t *Tracker) Offer(rep rfid.Report) ([]Position, error) {
	if !t.haveEPC {
		t.epc = rep.EPC
		t.haveEPC = true
	} else if rep.EPC != t.epc {
		// A different tag: ignore (multi-tag callers run one Tracker
		// per EPC).
		return nil, nil
	}
	t.dirty = true
	out := t.out[:0]
	// Close any sweeps that ended before this report, each appending its
	// positions to out.
	for rep.Time >= t.nextSweep+t.cfg.SweepInterval {
		var err error
		if out, err = t.closeSweep(out, false); err != nil {
			t.out = out
			return out, err
		}
	}
	t.out = out
	if id := rep.AntennaID; uint(id) < vote.MaxAntennas {
		t.latest[id] = timedPhase{phase: rep.PhaseRad, t: rep.Time}
		t.heard |= 1 << id
	} else if !t.haveOther || rep.Time > t.other {
		// In time order the latest report is every such ID's last.
		t.other, t.haveOther = rep.Time, true
	}
	return out, nil
}

// Flush closes the current sweep (e.g. at end of stream) and returns any
// final positions. A tracker still warming up treats the stream as
// complete: it attempts a final acquisition over whatever prefix it has
// buffered, so a short stream's positions are emitted rather than
// silently discarded with the buffer.
//
// Flush is idempotent: a Flush with no report or sample ingested since
// the previous one is a no-op. Without the guard a second flush would
// advance the sweep clock and re-snapshot the held per-antenna phases as
// a fresh sample — emitting a duplicate position from stale data — which
// is exactly what racing drain paths (a serving pump's idle drain vs. an
// explicit client Flush vs. session close) used to do.
//
// Like Offer's, the returned slice stays valid until the next call.
func (t *Tracker) Flush() ([]Position, error) {
	if !t.dirty {
		return nil, nil
	}
	t.dirty = false
	out, err := t.closeSweep(t.out[:0], true)
	t.out = out
	return out, err
}

// OfferSample feeds one already-merged sweep sample, bypassing report
// merging: the entry point for sample-level replays — and the
// batch/streaming equivalence tests, which push the exact samples a
// batch Trace consumes. Mixing OfferSample with report-level Offer on
// one tracker is unsupported. Like Offer's, the returned slice stays
// valid until the next call.
func (t *Tracker) OfferSample(s tracing.Sample) ([]Position, error) {
	t.dirty = true
	out, err := t.offerSample(t.out[:0], &s, false)
	t.out = out
	return out, err
}

// closeSweep snapshots the current per-antenna phases as one sample and
// advances the pipeline, appending any positions to out and returning
// it. final marks an end-of-stream (or pause) flush. Like every step of
// the pipeline below it, it returns out with whatever it appended, also
// alongside an error.
func (t *Tracker) closeSweep(out []Position, final bool) ([]Position, error) {
	now := t.nextSweep
	t.nextSweep += t.cfg.SweepInterval
	// Phases older than 2.2 sweep intervals are too stale to use.
	maxAge := t.cfg.SweepInterval * 11 / 5
	fresh := func(at time.Duration) bool { return now+t.cfg.SweepInterval-at <= maxAge }
	sample := tracing.Sample{T: now}
	for m := t.heard; m != 0; m &= m - 1 {
		id := bits.TrailingZeros32(m)
		if tp := &t.latest[id]; fresh(tp.t) {
			sample.Phase.Set(id, tp.phase)
		}
	}
	if sample.Phase.Len() == 0 && !(t.haveOther && fresh(t.other)) {
		if final && !t.started && len(t.samples) > 0 {
			// End of stream mid-warmup with nothing new this sweep:
			// still try to acquire over the buffered prefix.
			return t.tryAcquire(out, true)
		}
		return out, nil
	}
	return t.offerSample(out, &sample, final)
}

// offerSample advances the pipeline with one merged sample, appending
// any positions to out. Warmup buffering copies the sample.
func (t *Tracker) offerSample(out []Position, sample *tracing.Sample, final bool) ([]Position, error) {
	if t.started {
		return t.push(out, sample), nil
	}
	t.samples = append(t.samples, *sample)
	if len(t.samples) < DefaultWarmupSamples && !final {
		return out, nil
	}
	return t.tryAcquire(out, final)
}

// tryAcquire runs initial acquisition over the warmup buffer and, on
// success, seeds the multi-hypothesis stream and replays the buffered
// prefix through it so its state catches up with "now", appending the
// replay's positions to out.
func (t *Tracker) tryAcquire(out []Position, final bool) ([]Position, error) {
	cands, cstats, start, err := t.cfg.System.Acquire(t.cfg.Scratch, t.samples, final)
	if err != nil {
		// Not enough signal yet; keep buffering (bounded).
		if len(t.samples) > t.cfg.MaxAcquireBuffer {
			return out, fmt.Errorf("realtime: cannot acquire initial position: %w", err)
		}
		return out, nil
	}
	ms, err := t.cfg.System.Tracer().NewMultiStreamWith(
		t.cfg.Scratch, cands, t.samples[start],
		tracing.MultiConfig{Record: t.cfg.RecordTrace})
	if err != nil {
		return out, fmt.Errorf("realtime: %w", err)
	}
	t.ms = ms
	t.cstats = cstats
	t.started = true
	for i := start; i < len(t.samples); i++ {
		out = t.push(out, &t.samples[i])
		if !t.started {
			// A long replayed prefix can itself trip the loss detector
			// (push dropped the stream and emptied the buffer); stop
			// replaying the stale tail.
			return out, nil
		}
	}
	t.samples = t.samples[:0]
	return out, nil
}

// push extends the live stream by one sample, appending the leader's new
// position to out, and runs the tracking-loss detector over its votes.
func (t *Tracker) push(out []Position, sample *tracing.Sample) []Position {
	st, ok := t.ms.Push(*sample)
	if !ok {
		return out
	}
	// Tracking-loss detection: a collapsed recent leader vote means even
	// the best hypothesis's locked lobes no longer intersect coherently
	// (the over-constrained-system signal of §5.2). Drop the hypothesis
	// set and re-seed from a fresh acquisition.
	t.recent.add(st.Vote)
	if t.recent.n == reacquireWindow && t.recent.mean() < t.cfg.ReacquireVote {
		t.retireStream()
		t.recent = voteWindow{}
		t.samples = t.samples[:0]
		t.reacquisitions++
		return out
	}
	return append(out, Position{
		Time:       st.Point.T,
		Pos:        st.Point.Pos,
		Confidence: st.MeanVote,
		Switched:   st.Switched,
		Hypotheses: st.Active,
	})
}

// voteWindow is the loss detector's ring of the last reacquireWindow
// leader votes.
type voteWindow struct {
	votes [reacquireWindow]float64
	// n is how many votes the ring holds, and next the slot the next
	// vote takes: once the ring is full, the oldest vote's.
	n, next int
}

func (w *voteWindow) add(v float64) {
	w.votes[w.next] = v
	w.next = (w.next + 1) % reacquireWindow
	w.n = min(w.n+1, reacquireWindow)
}

// mean is the held votes' mean, summed oldest first: the same sum, in
// the same order, as over a slice of them.
func (w *voteWindow) mean() float64 {
	var s float64
	for i := range w.n {
		s += w.votes[(w.next-w.n+i+reacquireWindow)%reacquireWindow]
	}
	return s / float64(w.n)
}

// retireStream folds the live stream's counters into the cumulative
// totals and drops it.
func (t *Tracker) retireStream() {
	t.evals += t.ms.SearchEvals()
	t.switches += t.ms.Switches()
	t.retirements += t.ms.Retirements()
	t.ms = nil
	t.started = false
}

// Reacquisitions reports how many times tracking was lost and restarted.
func (t *Tracker) Reacquisitions() int { return t.reacquisitions }

// SearchEvals reports the cumulative tracing-step evaluation count of
// every stream this tracker has run — the streaming counterpart of
// Trace's per-result SearchEvals, used by serving-layer metrics. It
// counts no acquisition work: that is CandidateStats.GridEvals.
func (t *Tracker) SearchEvals() int {
	n := t.evals
	if t.ms != nil {
		n += t.ms.SearchEvals()
	}
	return n
}

// LeaderSwitches reports how many times the leading hypothesis changed,
// across all streams this tracker has run.
func (t *Tracker) LeaderSwitches() int {
	n := t.switches
	if t.ms != nil {
		n += t.ms.Switches()
	}
	return n
}

// Retirements reports how many hypotheses have been retired for
// collapsed vote records, across all streams this tracker has run.
func (t *Tracker) Retirements() int {
	n := t.retirements
	if t.ms != nil {
		n += t.ms.Retirements()
	}
	return n
}

// ActiveHypotheses reports how many candidate hypotheses the live stream
// is still advancing (0 before acquisition and after tracking loss).
func (t *Tracker) ActiveHypotheses() int {
	if t.ms == nil {
		return 0
	}
	return t.ms.Active()
}

// Buffered reports how many warmup samples are currently held for
// acquisition — the per-tag memory MaxAcquireBuffer bounds.
func (t *Tracker) Buffered() int { return len(t.samples) }

// TraceResult materializes the batch-equivalent outcome of the current
// stream: what System.Trace would have returned for the samples replayed
// so far. It requires Config.RecordTrace and a started tracker.
func (t *Tracker) TraceResult() (*core.TraceResult, error) {
	if !t.started {
		return nil, errors.New("realtime: tracker has not acquired")
	}
	return core.ResultFromMulti(t.ms, t.cstats)
}

// MeanVote reports the live leader's mean vote so far; callers can use it
// as a confidence signal (it collapses when tracking is lost).
func (t *Tracker) MeanVote() float64 {
	if t.ms == nil {
		return 0
	}
	return t.ms.LeaderMeanVote()
}

// Started reports whether initial acquisition has completed.
func (t *Tracker) Started() bool { return t.started }

// MergeStreams time-merges multiple report slices (one per reader) into a
// single non-decreasing stream, as a network fan-in would deliver them.
// Each input slice must itself be in non-decreasing time order (readers
// emit time-ordered reports); the merge is a k-way heap merge, linear in
// the total report count up to a log(readers) factor. Ties keep input
// order: earlier slices first, then position within the slice — exactly
// the order the old append-everything-and-stable-sort produced.
func MergeStreams(streams ...[]rfid.Report) []rfid.Report {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]rfid.Report, 0, total)
	// heads[i] is the next unconsumed index of streams[i]; h is a binary
	// min-heap of stream indices ordered by (head time, stream index).
	heads := make([]int, len(streams))
	h := make([]int, 0, len(streams))
	less := func(a, b int) bool {
		ta, tb := streams[a][heads[a]].Time, streams[b][heads[b]].Time
		if ta != tb {
			return ta < tb
		}
		return a < b
	}
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && less(h[l], h[min]) {
				min = l
			}
			if r < len(h) && less(h[r], h[min]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i, s := range streams {
		if len(s) > 0 {
			h = append(h, i)
			up(len(h) - 1)
		}
	}
	for len(h) > 0 {
		i := h[0]
		out = append(out, streams[i][heads[i]])
		heads[i]++
		if heads[i] == len(streams[i]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}
