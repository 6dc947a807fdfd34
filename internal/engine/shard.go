package engine

import (
	"sync"

	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
)

// shardInbox is each shard's inbox depth in messages: the caller runs
// that many calls ahead of a busy shard before Offer blocks, which is
// the engine's backpressure on its caller.
const shardInbox = 16

// kitPool hands each shard its reusable state when it is built and
// takes it back when the shard exits. It is package-level so kits
// survive engine lifetimes — callers that build an engine per stream
// (benchmarks, tests, short-lived servers) reuse warm kits. Kits never
// influence results.
var kitPool = sync.Pool{New: func() any {
	return &shardKit{scratch: vote.NewScratch(), free: make(chan []rfid.Report, shardInbox+2)}
}}

// shardKit is the reusable state a shard borrows from kitPool.
type shardKit struct {
	// scratch is the refinement scratch (the hierarchical search's memo
	// and frontier buffers, see vote.Scratch). One serves all of a
	// shard's tags because a shard is a single goroutine.
	scratch *vote.Scratch
	// free holds the emptied report slices of the shard's report
	// messages: the shard returns each once it has offered its reports,
	// and Offer fills it again, so streaming allocates no slice per call
	// once warm. Its capacity covers every slice that can be out at once
	// (a full inbox, the one being offered, the one being filled), so a
	// return never waits.
	free chan []rfid.Report
}

// shardMsg is a shard inbox message: exactly one field is set.
type shardMsg struct {
	// reports are one Offer call's streamed reports for the shard's
	// tags, in stream order.
	reports []rfid.Report
	// flush closes every tag's current sweep and acks.
	flush chan error
	// stats asks for a snapshot of per-tag streaming state.
	stats chan []TagStats
}

// shard is one worker: a goroutine running the streaming pipeline of
// every tag hashed onto it.
type shard struct {
	in   chan shardMsg
	done chan struct{}
	kit  *shardKit
	// rp is the shard's streaming pipeline, on the kit's scratch.
	rp *Replayer
}

func newShard(cfg Config) *shard {
	kit := kitPool.Get().(*shardKit)
	sh := &shard{
		in:   make(chan shardMsg, shardInbox),
		done: make(chan struct{}),
		kit:  kit,
		rp:   newReplayer(cfg, kit.scratch),
	}
	sh.rp.OnUpdate = cfg.OnUpdate
	return sh
}

// take returns an empty report slice for Offer to fill: one the shard
// has handed back, or a new one.
func (s *shard) take() []rfid.Report {
	select {
	case b := <-s.kit.free:
		return b
	default:
		return make([]rfid.Report, 0, 64)
	}
}

func (s *shard) loop() {
	defer close(s.done)
	defer kitPool.Put(s.kit)
	for msg := range s.in {
		switch {
		case msg.reports != nil:
			// Offer never fails: a tag's terminal failure surfaces
			// through Stats.
			for _, rep := range msg.reports {
				_ = s.rp.Offer(rep)
			}
			select {
			case s.kit.free <- msg.reports[:0]:
			default:
			}
		case msg.flush != nil:
			msg.flush <- s.rp.Flush()
		case msg.stats != nil:
			msg.stats <- s.rp.Stats()
		}
	}
}
