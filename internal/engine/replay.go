package engine

import (
	"errors"
	"fmt"
	"sort"

	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
)

// Replayer is the per-tag streaming pipeline: it demultiplexes a
// time-ordered report stream by EPC into one realtime.Tracker per tag
// and runs them synchronously on the caller's goroutine. It is the only
// implementation of that pipeline. Every Engine shard runs one over the
// tags hashed onto it, and WAL retrace and catch-up run one over a
// session's canonical resequenced log, so replaying a log reproduces
// the live session's per-tag output by construction.
//
// A Replayer is single-goroutine: feed Offer/Flush in stream order,
// then read Stats or Results.
type Replayer struct {
	cfg     Config
	scratch *vote.Scratch
	tags    map[rfid.EPC]*tagState
	// order lists tags in first-seen order; Flush closes their sweeps in
	// this order, so a drain emits the same sequence live and in replay.
	order []*tagState
	// last is the tag of the previous report: a writer's reports come in
	// runs, so most reports skip the map lookup.
	last *tagState

	// OnUpdate, when set, receives each tag's new positions inline from
	// Offer/Flush.
	OnUpdate func(Update)
}

// tagState is one streamed tag's pipeline, with its EPC and the EPC's
// hex key, which every Update and TagStats carries.
type tagState struct {
	epc       rfid.EPC
	key       string
	tracker   *realtime.Tracker
	positions int
	err       error
}

// NewReplayer builds a replayer from the same Config an Engine takes.
// Shards, BatchSize and Config.OnUpdate are ignored (replay is
// synchronous; set Replayer.OnUpdate instead); System, SweepInterval
// and the per-tag tracker knobs mean exactly what they mean for a live
// engine. Set RecordTrace when Results must materialize each tag's
// batch-equivalent TraceResult.
func NewReplayer(cfg Config) (*Replayer, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return newReplayer(cfg, vote.NewScratch()), nil
}

// newReplayer is the one constructor behind NewReplayer and every
// engine shard; cfg has passed validate.
func newReplayer(cfg Config, scratch *vote.Scratch) *Replayer {
	return &Replayer{cfg: cfg, scratch: scratch, tags: map[rfid.EPC]*tagState{}}
}

// validate checks what New and NewReplayer both require of cfg.
func validate(cfg Config) error {
	if cfg.System == nil {
		return errors.New("engine: Config.System required")
	}
	if cfg.SweepInterval <= 0 {
		return errors.New("engine: Config.SweepInterval required")
	}
	// Catch an impossible acquisition bound at construction: left to the
	// per-tag tracker it would terminally fail every tag at its first
	// report, a silent-daemon failure mode.
	if cfg.MaxAcquireBuffer > 0 && cfg.MaxAcquireBuffer < realtime.DefaultWarmupSamples {
		return fmt.Errorf("engine: MaxAcquireBuffer %d must be ≥ the %d-sample warmup",
			cfg.MaxAcquireBuffer, realtime.DefaultWarmupSamples)
	}
	return nil
}

// tag returns the report's tag pipeline, building it on first sight: a
// tag appearing mid-stream simply starts its own pipeline at its first
// report.
func (r *Replayer) tag(epc rfid.EPC) *tagState {
	if r.last != nil && r.last.epc == epc {
		return r.last
	}
	ts, ok := r.tags[epc]
	if !ok {
		tracker, err := realtime.NewTracker(realtime.Config{
			System:           r.cfg.System,
			SweepInterval:    r.cfg.SweepInterval,
			MaxAcquireBuffer: r.cfg.MaxAcquireBuffer,
			RecordTrace:      r.cfg.RecordTrace,
			Scratch:          r.scratch,
		})
		ts = &tagState{epc: epc, key: epc.String(), tracker: tracker}
		if err != nil {
			ts.err = fmt.Errorf("engine: tag %s: %w", ts.key, err)
			ts.tracker = nil
		}
		r.tags[epc] = ts
		r.order = append(r.order, ts)
	}
	r.last = ts
	return ts
}

// Offer feeds one report (in stream order) to its tag's tracker. A tag
// whose pipeline failed terminally drops its reports; the failure is
// reported through Stats and Results.
func (r *Replayer) Offer(rep rfid.Report) error {
	ts := r.tag(rep.EPC)
	if ts.err != nil {
		return nil
	}
	ps, err := ts.tracker.Offer(rep)
	r.emit(ts, ps)
	if err != nil {
		ts.err = fmt.Errorf("engine: tag %s: %w", ts.key, err)
	}
	return nil
}

// Flush closes every tag's current sweep — a session drain, or the end of
// the stream — emitting any final positions through OnUpdate, and
// returns the first tag failure it caused. Safe to call repeatedly (the
// trackers' flush is idempotent), which is what makes a replay that
// always finishes with a Flush equivalent to a log whose last record
// already was one.
func (r *Replayer) Flush() error {
	var first error
	for _, ts := range r.order {
		if ts.err != nil {
			continue
		}
		ps, err := ts.tracker.Flush()
		r.emit(ts, ps)
		if err != nil {
			ts.err = fmt.Errorf("engine: tag %s: %w", ts.key, err)
			if first == nil {
				first = ts.err
			}
		}
	}
	return first
}

func (r *Replayer) emit(ts *tagState, ps []realtime.Position) {
	if len(ps) == 0 {
		return
	}
	ts.positions += len(ps)
	if r.OnUpdate != nil {
		r.OnUpdate(Update{Tag: ts.key, Positions: ps})
	}
}

// Stats reports each tag's tracking state, in first-seen order.
func (r *Replayer) Stats() []TagStats {
	out := make([]TagStats, 0, len(r.order))
	for _, ts := range r.order {
		st := TagStats{Tag: ts.key, Positions: ts.positions, Err: ts.err}
		if ts.tracker != nil {
			st.Started = ts.tracker.Started()
			st.MeanVote = ts.tracker.MeanVote()
			st.Reacquisitions = ts.tracker.Reacquisitions()
			st.Hypotheses = ts.tracker.ActiveHypotheses()
			st.LeaderSwitches = ts.tracker.LeaderSwitches()
			st.Retirements = ts.tracker.Retirements()
			st.Buffered = ts.tracker.Buffered()
			st.SearchEvals = ts.tracker.SearchEvals()
		}
		out = append(out, st)
	}
	return out
}

// Results materializes each tag's TraceResult (requires
// Config.RecordTrace), sorted by tag key: its last acquired epoch, with
// every epoch in Epochs. Tags that never acquired or failed terminally
// are reported with their error.
func (r *Replayer) Results() []TagResult {
	out := make([]TagResult, 0, len(r.order))
	for _, ts := range r.order {
		res := TagResult{Tag: ts.key, Err: ts.err}
		if ts.err == nil {
			if res.Result, res.Err = ts.tracker.TraceResult(); res.Err != nil {
				res.Err = fmt.Errorf("engine: tag %s: %w", ts.key, res.Err)
			}
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}
