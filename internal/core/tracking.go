package core

import (
	"errors"
	"fmt"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// WarmupSamples is how many samples a Tracking buffers before its first
// acquisition attempt of an epoch.
const WarmupSamples = 4

// The tracking-loss detector: an epoch ends when the mean of the leader's
// last reacquireWindow votes falls below reacquireVote (votes are ≤ 0,
// more negative is worse).
const (
	reacquireWindow = 8
	reacquireVote   = -0.5
)

// Position is one emitted position: the leading hypothesis's new estimate
// plus the hypothesis-set signals around it.
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

// Tracking is one tag's sample-level tracking state machine. Batch
// Trace, the live tracker (internal/realtime) and every replay feed their
// samples through it, so all of them run the same epochs.
//
// An epoch starts with an acquisition. The tag buffers WarmupSamples
// samples, Acquire finds candidate initial positions over the buffer, a
// multi-hypothesis stream (tracing.MultiStream) is seeded from the first
// sample of the window that acquired, and the buffer from that sample on
// is replayed through it. Each later sample steps the stream and emits
// the leader's position. The epoch ends when the tracking-loss detector
// fires: the leader's recent votes collapsed, so even its locked lobes
// stopped intersecting (the user left the field and came back elsewhere,
// say). The sample that fired it emits nothing, the hypotheses are
// dropped and the next sample starts a new warm-up.
//
// A Tracking is confined to one goroutine.
type Tracking struct {
	sys       *System
	sc        *vote.Scratch
	maxBuffer int
	record    bool

	// samples is the warm-up buffer; acquisition empties it and keeps
	// its capacity.
	samples []tracing.Sample
	// cur is the live epoch (cur.ms is nil while acquiring), done the
	// finished ones when recording.
	cur  epoch
	done []epoch
	// recent holds the live epoch's latest leader votes.
	recent voteWindow
	// reacquisitions counts the finished epochs; evals, switches and
	// retirements sum their counts, the live epoch's added on read.
	reacquisitions, evals, switches, retirements int
}

// epoch is one acquisition's hypothesis set and that acquisition's search
// stats.
type epoch struct {
	ms     *tracing.MultiStream
	cstats vote.SearchStats
}

// NewTracking starts a tag's tracking state machine. sc is its search
// scratch, confined to the Tracking's goroutine (nil takes a private
// one). maxBuffer bounds the warm-up buffer: acquisition failing past it
// is a terminal error (0 takes 400, about 10 s of 25 ms sweeps). record
// keeps every hypothesis's trajectory, and every finished epoch, so
// TraceResult can materialize them; memory then grows with the stream.
func (s *System) NewTracking(sc *vote.Scratch, maxBuffer int, record bool) Tracking {
	if sc == nil {
		sc = vote.NewScratch()
	}
	if maxBuffer <= 0 {
		maxBuffer = 400
	}
	return Tracking{
		sys: s, sc: sc, maxBuffer: maxBuffer, record: record,
		samples: make([]tracing.Sample, 0, WarmupSamples),
	}
}

// Push advances the state machine by one sample and appends the positions
// it emits to out: none while warming up, the replayed prefix when an
// acquisition succeeds, at most one otherwise. final marks the end of the
// stream or of a drain: a tag still warming up then tries to acquire at
// once, allowing averaging windows clamped at the buffer's tail. s may be
// nil only with final, for a last sweep that heard nothing. An error is
// terminal for the tag: acquisition kept failing past the buffer bound,
// or the acquired window's first sample observed too few pairs to seed
// the hypotheses. Errors carry no package prefix; callers add theirs.
func (t *Tracking) Push(out []Position, s *tracing.Sample, final bool) ([]Position, error) {
	switch {
	case t.cur.ms != nil && s != nil:
		return t.step(out, s), nil
	case t.cur.ms != nil:
		return out, nil
	case s != nil:
		t.samples = append(t.samples, *s)
	}
	if len(t.samples) == 0 || len(t.samples) < WarmupSamples && !final {
		return out, nil
	}
	return t.acquire(out, final)
}

// acquire runs Acquire over the warm-up buffer and, on success, seeds a
// new epoch and replays the buffer from the window's start through it,
// appending the replay's positions to out.
func (t *Tracking) acquire(out []Position, final bool) ([]Position, error) {
	cands, cstats, start, err := t.sys.Acquire(t.sc, t.samples, final)
	if err != nil {
		// Not enough signal yet; keep buffering (bounded).
		if len(t.samples) > t.maxBuffer {
			return out, fmt.Errorf("cannot acquire initial position: %w", err)
		}
		return out, nil
	}
	ms, err := t.sys.tracer.NewMultiStreamWith(t.sc, cands, t.samples[start], tracing.MultiConfig{Record: t.record})
	if err != nil {
		return out, err
	}
	t.cur = epoch{ms: ms, cstats: cstats}
	for i := start; i < len(t.samples); i++ {
		out = t.step(out, &t.samples[i])
		if t.cur.ms == nil {
			// A long replayed prefix can itself trip the loss detector,
			// which emptied the buffer; its stale tail is not replayed.
			return out, nil
		}
	}
	t.samples = t.samples[:0]
	return out, nil
}

// step pushes one sample through the live epoch, appending the leader's
// new position to out, and runs the tracking-loss detector over its vote.
func (t *Tracking) step(out []Position, s *tracing.Sample) []Position {
	st, ok := t.cur.ms.Push(*s)
	if !ok {
		return out
	}
	t.recent.add(st.Vote)
	if t.recent.n == reacquireWindow && t.recent.mean() < reacquireVote {
		t.endEpoch()
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

// endEpoch ends the live epoch at a tracking loss: its counts join the
// totals, a recording Tracking keeps it, and warm-up starts over.
func (t *Tracking) endEpoch() {
	ms := t.cur.ms
	t.evals += ms.SearchEvals()
	t.switches += ms.Switches()
	t.retirements += ms.Retirements()
	if t.record {
		if t.done == nil {
			t.done = make([]epoch, 0, 4) // room for a few losses at once
		}
		t.done = append(t.done, t.cur)
	}
	t.cur = epoch{}
	t.recent = voteWindow{}
	t.samples = t.samples[:0]
	t.reacquisitions++
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

// TraceResult materializes the tag's epochs (recording only): its fields
// describe the last acquired epoch — the live one, or the last finished
// one when the stream ended mid-reacquisition — and Epochs lists them
// all. It is an error only when no epoch acquired. Like Push's, its
// errors carry no package prefix.
func (t *Tracking) TraceResult() (*TraceResult, error) {
	if t.cur.ms == nil && t.reacquisitions == 0 {
		return nil, errors.New("never acquired")
	}
	if !t.record {
		return nil, errors.New("trace results require recording")
	}
	n := len(t.done)
	if t.cur.ms != nil {
		n++
	}
	// One allocation holds every epoch and, last, the result itself.
	epochs := make([]TraceResult, n+1)
	for i := range n {
		e := t.cur
		if i < len(t.done) {
			e = t.done[i]
		}
		all, cands, best, err := e.ms.Results()
		if err != nil {
			return nil, fmt.Errorf("every candidate trace failed: %w", err)
		}
		epochs[i] = TraceResult{
			Best:           all[best],
			BestIndex:      best,
			Candidates:     cands,
			All:            all,
			CandidateStats: e.cstats,
			LeaderSwitches: e.ms.Switches(),
			Retirements:    e.ms.Retirements(),
		}
	}
	res := &epochs[n]
	*res = epochs[n-1]
	res.Epochs = epochs[:n:n]
	return res, nil
}

// Started reports whether an epoch is live: acquisition has completed
// and tracking has not been lost since.
func (t *Tracking) Started() bool { return t.cur.ms != nil }

// Buffered reports how many warm-up samples are held for acquisition —
// the per-tag memory the buffer bound limits.
func (t *Tracking) Buffered() int { return len(t.samples) }

// Reacquisitions reports how many times tracking was lost and restarted.
func (t *Tracking) Reacquisitions() int { return t.reacquisitions }

// SearchEvals reports the tracing-step evaluations of every epoch, for
// serving-layer metrics. It counts no acquisition work: that is
// CandidateStats.GridEvals.
func (t *Tracking) SearchEvals() int { return t.evals + t.live((*tracing.MultiStream).SearchEvals) }

// LeaderSwitches reports how many times the leading hypothesis changed,
// across every epoch.
func (t *Tracking) LeaderSwitches() int { return t.switches + t.live((*tracing.MultiStream).Switches) }

// Retirements reports how many hypotheses were retired for collapsed
// vote records, across every epoch.
func (t *Tracking) Retirements() int {
	return t.retirements + t.live((*tracing.MultiStream).Retirements)
}

// ActiveHypotheses reports how many hypotheses the live epoch is still
// advancing (0 while acquiring).
func (t *Tracking) ActiveHypotheses() int { return t.live((*tracing.MultiStream).Active) }

// live returns count of the live epoch's stream, or 0 while acquiring.
func (t *Tracking) live(count func(*tracing.MultiStream) int) int {
	if t.cur.ms == nil {
		return 0
	}
	return count(t.cur.ms)
}

// MeanVote reports the live leader's mean vote so far (0 while
// acquiring); it collapses when tracking is lost.
func (t *Tracking) MeanVote() float64 {
	if t.cur.ms == nil {
		return 0
	}
	return t.cur.ms.LeaderMeanVote()
}
