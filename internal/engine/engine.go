// Package engine is the concurrent multi-tag tracking engine: it runs the
// multi-resolution vote → lobe-lock → trace pipeline (§5 of the paper) for
// many tags at once by sharding work across worker goroutines.
//
// # Sharding model
//
// An Engine owns N shards, each a single goroutine with an inbox channel.
// Every piece of work is keyed by tag identity (EPC), and a tag's key is
// hashed (FNV-1a) to pick its home shard, so all of one tag's work — batch
// traces and live report streams alike — executes sequentially on one
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
// over the same reports and flushes. The synchronous single-tag Trace
// runs the same shared pipeline directly on the caller's goroutine —
// semantically a 1-shard engine, without serialising unrelated callers.
//
// # Concurrency contract
//
// TraceBatch and Trace are safe to call from any number of goroutines.
// The streaming entry points Offer, Flush, Stats, TraceResults and
// Close must be called from a single ingest goroutine
// (reports must be time-ordered, which only a single caller can
// guarantee). The OnUpdate callback is invoked from shard goroutines —
// potentially several at once — and must synchronise its own state.
package engine

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/tracing"
)

// Config assembles an Engine.
type Config struct {
	// Shards is the number of worker shards. Default GOMAXPROCS.
	Shards int
	// Deployment is the antenna deployment; nil uses the standard one.
	Deployment *deploy.RFIDraw
	// Core configures the shared positioning/tracing system.
	Core core.Config
	// System, when non-nil, is a prebuilt read-only positioning system
	// shared with other engines (Deployment and Core are then ignored).
	// The serving layer uses this to give every session its own shard
	// group without duplicating the precomputed steering tables.
	System *core.System

	// SweepInterval is the readers' per-tag sweep period, required for
	// the streaming path (Offer). With Gen-2 singulation splitting
	// airtime across T tags, this is T × the reader's raw sweep period.
	SweepInterval time.Duration
	// MaxAcquireBuffer is forwarded to each per-tag realtime tracker (0
	// takes its default): it bounds each tag's warmup sample buffer, and
	// with it the per-tag memory a serving deployment commits to
	// unacquirable tags.
	MaxAcquireBuffer int
	// RecordTrace keeps every streamed tag's full hypothesis
	// trajectories so TraceResults can materialize batch-equivalent
	// outcomes. Memory then grows with stream length — meant for
	// replays and equivalence tests, not serving.
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

// TagJob is one batch tracing job: a tag's full observation stream.
type TagJob struct {
	// Tag keys the job; jobs with equal keys run sequentially in order.
	Tag string
	// Samples is the tag's merged observation stream, in time order.
	Samples []tracing.Sample
}

// TagResult is the outcome of one TagJob.
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

// Engine is a sharded concurrent multi-tag tracker.
type Engine struct {
	cfg    Config
	sys    *core.System
	shards []*shard
	// fill holds, per shard, the slice Offer is filling with that shard's
	// share of the current call (nil between calls); like dirty it is
	// owned by the ingest goroutine.
	fill [][]rfid.Report

	// dirty records whether any report has been offered since the last
	// Flush; it is owned by the ingest goroutine (see the concurrency
	// contract).
	dirty bool
	// mu guards shard-channel sends from TraceBatch (which any goroutine
	// may call) against Close closing those channels: senders hold the
	// read side, Close holds the write side while marking closed.
	mu     sync.RWMutex
	closed bool
	// closeOnce makes Close idempotent and safe to call from several
	// goroutines at once: the first caller runs the shutdown, later
	// callers block until it finishes and share its error.
	closeOnce sync.Once
	closeErr  error
}

// New builds and starts an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	sys, err := resolveSystem(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, sys: sys, shards: make([]*shard, cfg.Shards), fill: make([][]rfid.Report, cfg.Shards)}
	for i := range e.shards {
		e.shards[i] = newShard(cfg, sys)
		go e.shards[i].loop()
	}
	return e, nil
}

// System exposes the shared read-only positioning system.
func (e *Engine) System() *core.System { return e.sys }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// shardFor hashes a tag key onto its home shard (FNV-1a 64).
func (e *Engine) shardFor(key string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return e.shards[h%uint64(len(e.shards))]
}

// shardOfEPC is shardFor's index over the EPC's raw bytes — the
// streaming path routes every report through here, so it must not
// allocate (EPC.String would build a garbage hex string per report).
func (e *Engine) shardOfEPC(epc rfid.EPC) int {
	h := uint64(14695981039346656037)
	for _, b := range epc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(len(e.shards)))
}

// TraceBatch runs every job's full vote → lobe-lock → trace pipeline,
// jobs for different tags in parallel across shards, and returns results
// aligned with jobs. Each result is identical to what the sequential
// single-tag path produces for the same samples, for any shard count.
func (e *Engine) TraceBatch(jobs []TagJob) []TagResult {
	out := make([]TagResult, len(jobs))
	var wg sync.WaitGroup
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		for i := range jobs {
			out[i] = TagResult{Tag: jobs[i].Tag, Err: errors.New("engine: closed")}
		}
		return out
	}
	wg.Add(len(jobs))
	for i := range jobs {
		out[i].Tag = jobs[i].Tag
		e.shardFor(jobs[i].Tag).in <- shardMsg{job: &traceJob{
			samples: jobs[i].Samples,
			out:     &out[i],
			wg:      &wg,
		}}
	}
	e.mu.RUnlock()
	wg.Wait()
	return out
}

// Trace is the synchronous single-tag path. It runs the shared system's
// sequential pipeline directly on the caller's goroutine — exactly the
// code a shard would run for a 1-job batch, without serialising unrelated
// callers behind one shard's inbox.
func (e *Engine) Trace(samples []tracing.Sample) (*core.TraceResult, error) {
	return e.sys.Trace(samples)
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
	if e.cfg.SweepInterval <= 0 {
		return errors.New("engine: Config.SweepInterval required for streaming")
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

// Stats reports per-tag streaming state, sorted by tag key. It belongs
// to the ingest goroutine (see the concurrency contract), so the
// snapshot covers every report that goroutine has offered.
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

// TraceResults materializes each streamed tag's batch-equivalent
// TraceResult (requires Config.RecordTrace), sorted by tag key. Like
// Stats it belongs to the ingest goroutine; tags that never acquired
// are reported with an error.
func (e *Engine) TraceResults() []TagResult {
	if e.closed {
		return nil
	}
	chans := make([]chan []TagResult, len(e.shards))
	for i, sh := range e.shards {
		chans[i] = make(chan []TagResult, 1)
		sh.in <- shardMsg{results: chans[i]}
	}
	var out []TagResult
	for _, c := range chans {
		out = append(out, <-c...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Close flushes, stops every shard and waits for them to exit. Close is
// idempotent and safe to call from any number of goroutines, concurrently
// with in-flight TraceBatch/Trace calls: batch jobs dispatched before the
// close complete normally, jobs arriving after it fail with an
// "engine: closed" error, and every Close call returns the same error
// once shutdown has finished. The streaming entry points (Offer, Flush,
// Stats) remain ingest-goroutine-only and must not race a Close from
// another goroutine.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closeErr = e.Flush()
		e.mu.Lock()
		e.closed = true
		for _, sh := range e.shards {
			close(sh.in)
		}
		e.mu.Unlock()
		for _, sh := range e.shards {
			<-sh.done
		}
	})
	return e.closeErr
}
