// Package engine is the live multi-tag tracking engine: it runs the
// multi-resolution vote → lobe-lock → trace pipeline (§5 of the paper)
// over a stream of raw reports from many tags at once, sharding the tags
// across worker goroutines.
//
// # Sharding model
//
// An Engine owns N shards, each a single goroutine with an inbox channel.
// A report's tag identity (EPC) is hashed (FNV-1a) to pick its home
// shard, so all of one tag's reports are tracked sequentially on one
// goroutine. Each shard streams its tags through a Replayer, the one
// implementation of the per-tag streaming pipeline, which WAL retrace and
// catch-up also run; per-tag state (the realtime tracker, its lobe locks,
// its sample buffer) is confined to that goroutine and never locked. The
// heavy read-only structures — the deployment, the positioner with its
// precomputed steering table, the tracer — live in one core.System shared
// by all shards.
//
// Because a tag's pipeline is sequential on its home shard and runs
// exactly the code the single-threaded path runs, per-tag output is
// deterministic and identical for any shard count, including 1. A
// 1-shard engine's whole update sequence is the synchronous Replayer's
// over the same reports and flushes.
//
// # Concurrency contract
//
// Offer, Flush, Stats and Close must be serialized by the caller: one
// call at a time, reports in time order. They need not come from one
// goroutine; the serving layer makes each under its session's ingest
// lock, on whichever goroutine holds it. Offer blocks while a shard's
// inbox is full, and Flush and Stats wait for every shard. The OnUpdate
// callback is invoked from shard goroutines — potentially several at
// once — and must synchronise its own state without waiting on anything
// the caller holds across an engine call, or the two deadlock.
package engine

import (
	"errors"
	"runtime"
	"sort"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
)

// Config assembles an Engine or a Replayer.
type Config struct {
	// Shards is the number of worker shards. Default GOMAXPROCS.
	Shards int
	// System is the prebuilt read-only positioning system the engine
	// traces with (required). Engines on one System share its
	// precomputed steering tables: the serving layer gives every session
	// its own shard group over one System per (geometry, search) pair.
	System *core.System

	// SweepInterval is the readers' per-tag sweep period (required).
	// With Gen-2 singulation splitting airtime across T tags, this is
	// T × the reader's raw sweep period.
	SweepInterval time.Duration
	// MaxAcquireBuffer is forwarded to each per-tag realtime tracker (0
	// takes its default): it bounds each tag's warmup sample buffer, and
	// with it the per-tag memory a serving deployment commits to
	// unacquirable tags.
	MaxAcquireBuffer int
	// RecordTrace keeps every tag's full hypothesis trajectories so a
	// Replayer's Results can materialize batch-equivalent outcomes.
	// Memory then grows with stream length, so it is a Replayer option
	// (retrace, offline replay); New refuses it.
	RecordTrace bool

	// OnUpdate receives live position updates from the streaming path.
	// It is called from shard goroutines, possibly concurrently.
	OnUpdate func(Update)
	// BatchSize has no effect: Offer dispatches each call's reports to
	// their shards at once, one message per shard.
	BatchSize int
}

// Update is one live output notice: new positions for one tag.
type Update struct {
	// Tag is the tag key (EPC hex for wire-fed engines).
	Tag string
	// Positions are the newly estimated positions, in time order. They
	// are the tag tracker's reused buffer (realtime.Tracker.Offer): valid
	// during the OnUpdate call only, so a callback that keeps them must
	// copy them.
	Positions []realtime.Position
}

// TagResult is one tag's outcome from Replayer.Results.
type TagResult struct {
	Tag    string
	Result *core.TraceResult
	Err    error
}

// TagStats describes one streamed tag's tracking state.
type TagStats struct {
	Tag            string
	Positions      int
	Started        bool
	MeanVote       float64
	Reacquisitions int
	// Hypotheses is how many candidate hypotheses the tag's live
	// multi-stream is still advancing (0 before acquisition).
	Hypotheses int
	// LeaderSwitches counts leadership changes across the tag's streams
	// — the §5.2 over-time disambiguation re-electing a candidate.
	LeaderSwitches int
	// Retirements counts hypotheses retired for collapsed vote records.
	Retirements int
	// Buffered is the tag's current warmup sample buffer size, bounded
	// by Config.MaxAcquireBuffer.
	Buffered int
	// SearchEvals is the tag's cumulative tracing-step evaluation count
	// (realtime.Tracker.SearchEvals), for serving-layer metrics. It
	// counts no acquisition work.
	SearchEvals int
	Err         error
}

// Engine is a sharded concurrent multi-tag live tracker.
type Engine struct {
	shards []*shard
	// fill holds, per shard, the slice Offer is filling with that shard's
	// share of the current call (nil between calls).
	fill [][]rfid.Report
	// dirty records whether any report has been offered since the last
	// Flush. Like closed, it belongs to the serialized caller (see the
	// concurrency contract).
	dirty  bool
	closed bool
}

// New builds and starts an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.RecordTrace {
		return nil, errors.New("engine: RecordTrace is a Replayer option; a live engine does not record")
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	e := &Engine{shards: make([]*shard, cfg.Shards), fill: make([][]rfid.Report, cfg.Shards)}
	for i := range e.shards {
		e.shards[i] = newShard(cfg)
		go e.shards[i].loop()
	}
	return e, nil
}

// shardOfEPC hashes a tag's EPC onto its home shard (FNV-1a 64 over the
// raw bytes). Every report is routed through here, so it must not
// allocate.
func (e *Engine) shardOfEPC(epc rfid.EPC) int {
	h := uint64(14695981039346656037)
	for _, b := range epc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(len(e.shards)))
}

// Offer ingests live reports, routing each to its tag's home shard: one
// pass puts every report in its shard's slice, in order, and each shard
// with reports then gets one message. A tag lives on one shard, so its
// reports reach its pipeline in the order offered, however the stream is
// cut into calls. Reports must arrive in non-decreasing time order.
func (e *Engine) Offer(reps ...rfid.Report) error {
	if e.closed {
		return errors.New("engine: closed")
	}
	if len(reps) == 0 {
		return nil
	}
	e.dirty = true
	for _, rep := range reps {
		i := e.shardOfEPC(rep.EPC)
		if e.fill[i] == nil {
			e.fill[i] = e.shards[i].take()
		}
		e.fill[i] = append(e.fill[i], rep)
	}
	for i, b := range e.fill {
		if b != nil {
			e.fill[i] = nil
			e.shards[i].in <- shardMsg{reports: b}
		}
	}
	return nil
}

// Flush closes every tracker's current sweep (e.g. at end of stream),
// emitting any final positions through OnUpdate. It blocks until all
// shards have drained. A Flush with nothing offered since the previous
// one is a no-op.
func (e *Engine) Flush() error {
	if e.closed {
		return errors.New("engine: closed")
	}
	if !e.dirty {
		return nil
	}
	e.dirty = false
	acks := make([]chan error, len(e.shards))
	for i, sh := range e.shards {
		acks[i] = make(chan error, 1)
		sh.in <- shardMsg{flush: acks[i]}
	}
	var first error
	for _, ack := range acks {
		if err := <-ack; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats reports per-tag streaming state, sorted by tag key. The snapshot
// covers every report offered before the call.
func (e *Engine) Stats() []TagStats {
	if e.closed {
		return nil
	}
	chans := make([]chan []TagStats, len(e.shards))
	for i, sh := range e.shards {
		chans[i] = make(chan []TagStats, 1)
		sh.in <- shardMsg{stats: chans[i]}
	}
	var out []TagStats
	for _, c := range chans {
		out = append(out, <-c...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Close flushes, stops every shard and waits for them to exit. A second
// Close does nothing; after it Offer and Flush fail and Stats returns
// nil.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	err := e.Flush()
	e.closed = true
	for _, sh := range e.shards {
		close(sh.in)
	}
	for _, sh := range e.shards {
		<-sh.done
	}
	return err
}
