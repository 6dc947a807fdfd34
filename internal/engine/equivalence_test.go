package engine

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/realtime"
	"rfidraw/internal/tracing"
)

// TestBatchIsReplayOfStreaming is the refactor's hard gate: one
// algorithm, two schedulers. For every tag of the sim corpus at 1, 8 and
// 64 tags, the batch pipeline's TraceResult must be byte-identical (gob)
// to what the live tracker materializes after the same samples are
// replayed through it sweep by sweep. The live side runs the real
// realtime.Tracker (the code rfidrawd serves), driven at the sample
// level; tags replay concurrently so -race also patrols the shared
// read-only System. Reacquisition is disabled on the live side — it is
// the one live-only behaviour (batch streams cannot be re-acquired) and
// has its own tests.
func TestBatchIsReplayOfStreaming(t *testing.T) {
	tagCounts := []int{1, 8, 64}
	if testing.Short() {
		tagCounts = []int{1, 8}
	}
	for _, tags := range tagCounts {
		run := multiRun(t, tags)
		jobs := make([]TagJob, tags)
		for i := 0; i < tags; i++ {
			jobs[i] = TagJob{Tag: run.Tags[i].EPC.String(), Samples: run.SamplesRF[i]}
		}
		e := newEngine(t, Config{Shards: 4})
		batch := e.TraceBatch(jobs)

		live := make([]*core.TraceResult, tags)
		errs := make([]error, tags)
		var wg sync.WaitGroup
		for i := 0; i < tags; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				live[i], errs[i] = replayLive(e.System(), run.SamplesRF[i])
			}(i)
		}
		wg.Wait()

		for i := 0; i < tags; i++ {
			if batch[i].Err != nil {
				t.Fatalf("tags=%d tag %d: batch: %v", tags, i, batch[i].Err)
			}
			if errs[i] != nil {
				t.Fatalf("tags=%d tag %d: live replay: %v", tags, i, errs[i])
			}
			if !bytes.Equal(encodeResult(t, batch[i].Result), encodeResult(t, live[i])) {
				t.Errorf("tags=%d tag %d: batch result differs from streaming replay "+
					"(batch best=%d switches=%d; live best=%d switches=%d)",
					tags, i,
					batch[i].Result.BestIndex, batch[i].Result.LeaderSwitches,
					live[i].BestIndex, live[i].LeaderSwitches)
			}
		}
	}
}

// TestStreamingSurfacesLeaderSwitches: on the multi-tag corpus the
// over-time disambiguation re-elects at least one tag's leader
// mid-stream; the switch must be flagged on the emitted position, carry
// hypothesis counts, and agree with the tag's TagStats counters.
func TestStreamingSurfacesLeaderSwitches(t *testing.T) {
	run := multiRun(t, 3)
	e, got := streamInto(t, Config{
		Shards:        4,
		SweepInterval: run.SweepInterval * time.Duration(len(run.Tags)),
	}, run)
	flagged := map[string]int{}
	for tag, ps := range got {
		for _, p := range ps {
			if p.Hypotheses <= 0 {
				t.Fatalf("tag %s: position without hypothesis count: %+v", tag, p)
			}
			if p.Confidence > 0 {
				t.Fatalf("tag %s: confidence %v must be ≤ 0", tag, p.Confidence)
			}
			if p.Switched {
				flagged[tag]++
			}
		}
	}
	totalFlagged := 0
	for _, n := range flagged {
		totalFlagged += n
	}
	if totalFlagged == 0 {
		t.Fatal("no leader switch surfaced on the corpus — the disambiguation signal is lost")
	}
	for _, st := range e.Stats() {
		if st.LeaderSwitches != flagged[st.Tag] {
			t.Fatalf("tag %s: stats report %d switches, positions flagged %d",
				st.Tag, st.LeaderSwitches, flagged[st.Tag])
		}
		if st.Started && st.Hypotheses <= 0 {
			t.Fatalf("tag %s: started with %d active hypotheses", st.Tag, st.Hypotheses)
		}
	}
}

// TestFlushDuringWarmupDoesNotLeakPrefix: a stream that ends before the
// warmup target is reached must still be traced — Flush treats the
// stream as complete, acquires over the buffered prefix and emits its
// positions — and the warmup buffer must be released either way, which
// TagStats surfaces as Buffered.
func TestFlushDuringWarmupDoesNotLeakPrefix(t *testing.T) {
	run := multiRun(t, 1)
	sweep := run.SweepInterval * time.Duration(len(run.Tags))
	var mu sync.Mutex
	emitted := 0
	e := newEngine(t, Config{Shards: 2, SweepInterval: sweep, OnUpdate: func(u Update) {
		mu.Lock()
		emitted += len(u.Positions)
		mu.Unlock()
	}})
	// Only three sweeps of reports: one short of the default warmup of 4.
	cutoff := 3 * sweep
	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if rep.Time >= cutoff {
			break
		}
		if err := e.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	stats := e.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats for %d tags, want 1", len(stats))
	}
	if stats[0].Started {
		t.Fatal("tracker acquired before warmup completed or stream flushed")
	}
	if stats[0].Buffered == 0 {
		t.Fatal("warmup prefix not buffered — test premise broken")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	stats = e.Stats()
	if stats[0].Buffered != 0 {
		t.Fatalf("flush leaked %d buffered warmup samples", stats[0].Buffered)
	}
	if !stats[0].Started || stats[0].Positions == 0 {
		t.Fatalf("flushed warmup prefix was discarded: started=%v positions=%d",
			stats[0].Started, stats[0].Positions)
	}
	mu.Lock()
	defer mu.Unlock()
	if emitted != stats[0].Positions {
		t.Fatalf("OnUpdate saw %d positions, stats %d", emitted, stats[0].Positions)
	}
}

// replayLive pushes a batch sample slice through a live tracker one
// sweep at a time and materializes the batch-equivalent result.
func replayLive(sys *core.System, samples []tracing.Sample) (*core.TraceResult, error) {
	tr, err := realtime.NewTracker(realtime.Config{
		System:        sys,
		SweepInterval: 25 * time.Millisecond,
		ReacquireVote: math.Inf(-1),
		RecordTrace:   true,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if _, err := tr.OfferSample(s); err != nil {
			return nil, err
		}
	}
	if _, err := tr.Flush(); err != nil {
		return nil, err
	}
	return tr.TraceResult()
}
