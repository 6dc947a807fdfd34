package engine

import (
	"sync"

	"rfidraw/internal/rfid"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// scratchPool hands each shard its reusable refinement scratch (the
// hierarchical search's memo and frontier buffers, see vote.Scratch) when
// it is built and takes it back when the shard exits. It is
// package-level so scratches survive engine lifetimes — callers that
// build an engine per stream (benchmarks, tests, short-lived servers)
// reuse warm scratches. One scratch serves all of a shard's tags because
// a shard is a single goroutine; scratches never influence results.
var scratchPool = sync.Pool{New: func() any { return vote.NewScratch() }}

// traceJob is one batch tracing unit of work.
type traceJob struct {
	samples []tracing.Sample
	out     *TagResult
	wg      *sync.WaitGroup
}

// shardMsg is a shard inbox message: at most one of the pointer and
// channel fields is set, and a message with none set carries report.
type shardMsg struct {
	// job runs one batch trace.
	job *traceJob
	// flush closes every tag's current sweep and acks.
	flush chan error
	// stats asks for a snapshot of per-tag streaming state.
	stats chan []TagStats
	// results asks for batch-equivalent trace results (RecordTrace).
	results chan []TagResult
	// report is one streamed report for the shard's Replayer.
	report rfid.Report
}

// shard is one worker: a goroutine running the streaming pipeline of
// every tag hashed onto it, and the batch jobs keyed to those tags.
type shard struct {
	in   chan shardMsg
	done chan struct{}
	// rp is the shard's streaming pipeline. Its scratch, from
	// scratchPool, also serves the shard's batch traces.
	rp *Replayer
}

func (s *shard) loop() {
	defer close(s.done)
	defer scratchPool.Put(s.rp.scratch)
	for msg := range s.in {
		switch {
		case msg.job != nil:
			res, err := s.rp.sys.TraceWith(s.rp.scratch, msg.job.samples)
			msg.job.out.Result, msg.job.out.Err = res, err
			msg.job.wg.Done()
		case msg.flush != nil:
			msg.flush <- s.rp.Flush()
		case msg.stats != nil:
			msg.stats <- s.rp.Stats()
		case msg.results != nil:
			msg.results <- s.rp.Results()
		default:
			// Offer never fails: a tag's terminal failure surfaces
			// through Stats and Results.
			_ = s.rp.Offer(msg.report)
		}
	}
}
