// Package realtime turns live per-reply phase report streams into a live
// trajectory: the online counterpart of the batch pipeline. A Tracker
// merges the readers' reports into one sample per sweep and feeds each
// closed sweep to its tag's core.Tracking — the state machine batch Trace
// and every replay run too — emitting the current leader's position every
// sweep, the mode a virtual touch screen runs in (§9's cursor
// discussion). So a recording Tracker's TraceResult equals, epoch by
// epoch and bit for bit, what a Tracking fed the same sweeps and flushes
// returns, with the same tracking-loss detector on; without mid-stream
// flushes that is System.Trace over the closed sweeps' samples.
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
	"rfidraw/internal/rfid"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// Position is one live output sample: the leading hypothesis's new
// estimate plus the hypothesis-set signals around it.
type Position = core.Position

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
	// RecordTrace keeps every hypothesis's full trajectory, and every
	// finished epoch, so TraceResult can materialize them. Memory then
	// grows with stream length, so it is meant for replays and the
	// batch/streaming equivalence tests, not serving.
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
const DefaultWarmupSamples = core.WarmupSamples

// Tracker consumes rfid.Reports (from any number of readers) in time order
// and produces live positions. It reads out its tag's tracking state
// through the embedded Tracking (Started, Buffered, SearchEvals,
// TraceResult and the other counters); only Offer and Flush feed it.
type Tracker struct {
	core.Tracking
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
	// out is the position buffer Offer and Flush return, reused by the
	// next call.
	out []Position
	// dirty records whether any report has arrived since the last Flush;
	// it makes Flush idempotent (see Flush).
	dirty bool
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
	if cfg.MaxAcquireBuffer > 0 && cfg.MaxAcquireBuffer < DefaultWarmupSamples {
		return nil, fmt.Errorf("realtime: MaxAcquireBuffer %d must be ≥ the %d-sample warmup",
			cfg.MaxAcquireBuffer, DefaultWarmupSamples)
	}
	return &Tracker{
		Tracking: cfg.System.NewTracking(cfg.Scratch, cfg.MaxAcquireBuffer, cfg.RecordTrace),
		cfg:      cfg,
	}, nil
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
	t.hold(rep)
	return out, nil
}

// hold keeps a report's phase as its antenna's latest.
func (t *Tracker) hold(rep rfid.Report) {
	if id := rep.AntennaID; uint(id) < vote.MaxAntennas {
		t.latest[id] = timedPhase{phase: rep.PhaseRad, t: rep.Time}
		t.heard |= 1 << id
	} else if !t.haveOther || rep.Time > t.other {
		// In time order the latest report is every such ID's last.
		t.other, t.haveOther = rep.Time, true
	}
}

// Flush closes the current sweep (e.g. at end of stream) and returns any
// final positions. A tracker still warming up treats the stream as
// complete: it attempts a final acquisition over whatever prefix it has
// buffered, so a short stream's positions are emitted rather than
// silently discarded with the buffer.
//
// Flush is idempotent: a Flush with no report ingested since the
// previous one is a no-op. Without the guard a second flush would
// advance the sweep clock and re-snapshot the held per-antenna phases as
// a fresh sample — emitting a duplicate position from stale data — which
// is exactly what racing drain paths (a serving session's idle drain vs. an
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

// closeSweep closes the current sweep and feeds its sample to the tag's
// Tracking, appending any positions to out and returning it, also
// alongside an error. final marks an end-of-stream (or pause) flush.
func (t *Tracker) closeSweep(out []Position, final bool) ([]Position, error) {
	sample, heard := t.sweep()
	s := &sample
	if !heard {
		if !final {
			return out, nil
		}
		// Nothing new this sweep: a tag still warming up acquires over
		// its buffered prefix all the same.
		s = nil
	}
	out, err := t.Push(out, s, final)
	if err != nil {
		err = fmt.Errorf("realtime: %w", err)
	}
	return out, err
}

// sweep snapshots the held per-antenna phases as the current sweep's
// sample and advances the sweep clock. heard is false when no report is
// fresh enough for the sweep to count.
func (t *Tracker) sweep() (sample tracing.Sample, heard bool) {
	now := t.nextSweep
	t.nextSweep += t.cfg.SweepInterval
	// Phases older than 2.2 sweep intervals are too stale to use.
	maxAge := t.cfg.SweepInterval * 11 / 5
	fresh := func(at time.Duration) bool { return now+t.cfg.SweepInterval-at <= maxAge }
	sample.T = now
	for m := t.heard; m != 0; m &= m - 1 {
		id := bits.TrailingZeros32(m)
		if tp := &t.latest[id]; fresh(tp.t) {
			sample.Phase.Set(id, tp.phase)
		}
	}
	return sample, sample.Phase.Len() > 0 || t.haveOther && fresh(t.other)
}

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
