package engine

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/realtime"
)

// update is one emitted position as an OnUpdate callback saw it.
type update struct {
	tag string
	realtime.Position
}

// TestReplayerMatchesStreamingEngine is the WAL subsystem's in-memory
// foundation: replaying the exact report stream a live engine consumed
// through a synchronous Replayer must reproduce the engine's per-tag
// batch-equivalent results gob-byte-identically — including positions
// emitted around interleaved flushes (the pump's idle drains, which the
// WAL records so replays drain at the same points). Every tag's update
// sequence must match at any shard count, and a 1-shard engine's whole
// update sequence, across tags and drains, must equal the Replayer's.
func TestReplayerMatchesStreamingEngine(t *testing.T) {
	run := multiRun(t, 3)
	sweep := run.SweepInterval * time.Duration(len(run.Tags))
	merged := realtime.MergeStreams(run.ReportsRF...)
	// Split the stream in three, flushing at the joints like idle drains.
	cuts := []int{len(merged) / 3, 2 * len(merged) / 3, len(merged)}
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			var liveSeq []update
			e := newEngine(t, Config{
				Shards:        shards,
				SweepInterval: sweep,
				RecordTrace:   true,
				OnUpdate: func(u Update) {
					mu.Lock()
					defer mu.Unlock()
					for _, p := range u.Positions {
						liveSeq = append(liveSeq, update{u.Tag, p})
					}
				},
			})
			prev := 0
			for _, cut := range cuts {
				for _, rep := range merged[prev:cut] {
					if err := e.Offer(rep); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				prev = cut
			}
			// TraceResults round-trips every shard, so every OnUpdate call
			// has returned and liveSeq is settled.
			live := e.TraceResults()
			if len(live) != len(run.Tags) {
				t.Fatalf("live results for %d tags, want %d", len(live), len(run.Tags))
			}

			// The replayer follows the live schedule: same reports, same
			// drains.
			rp, err := NewReplayer(Config{
				System:        e.System(),
				SweepInterval: sweep,
				RecordTrace:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var replaySeq []update
			rp.OnUpdate = func(u Update) {
				for _, p := range u.Positions {
					replaySeq = append(replaySeq, update{u.Tag, p})
				}
			}
			prev = 0
			for _, cut := range cuts {
				for _, rep := range merged[prev:cut] {
					if err := rp.Offer(rep); err != nil {
						t.Fatal(err)
					}
				}
				if err := rp.Flush(); err != nil {
					t.Fatal(err)
				}
				prev = cut
			}
			// A trailing extra Flush must be harmless (idempotence):
			// retrace always finishes with one.
			if err := rp.Flush(); err != nil {
				t.Fatal(err)
			}
			replayed := rp.Results()
			if len(replayed) != len(live) {
				t.Fatalf("replayed %d tags, live %d", len(replayed), len(live))
			}
			for i := range live {
				if live[i].Err != nil {
					t.Fatalf("tag %s: live: %v", live[i].Tag, live[i].Err)
				}
				if replayed[i].Err != nil {
					t.Fatalf("tag %s: replay: %v", replayed[i].Tag, replayed[i].Err)
				}
				if replayed[i].Tag != live[i].Tag {
					t.Fatalf("tag order: %s vs %s", replayed[i].Tag, live[i].Tag)
				}
				if !bytes.Equal(encodeResult(t, live[i].Result), encodeResult(t, replayed[i].Result)) {
					t.Errorf("tag %s: replayer result differs from live engine", live[i].Tag)
				}
				tagOnly := func(seq []update) []update {
					return slices.DeleteFunc(slices.Clone(seq), func(u update) bool { return u.tag != live[i].Tag })
				}
				if !slices.Equal(tagOnly(liveSeq), tagOnly(replaySeq)) {
					t.Errorf("tag %s: live update sequence differs from replay", live[i].Tag)
				}
			}
			if len(liveSeq) == 0 {
				t.Fatal("no updates emitted")
			}
			if shards == 1 && !slices.Equal(liveSeq, replaySeq) {
				t.Errorf("1-shard live update sequence (%d points) differs from replay (%d points)",
					len(liveSeq), len(replaySeq))
			}
		})
	}
}
