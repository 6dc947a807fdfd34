package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
)

// update is one emitted position as an OnUpdate callback saw it.
type update struct {
	tag string
	realtime.Position
}

// TestReplayerMatchesStreamingEngine is the WAL subsystem's in-memory
// foundation: replaying the exact report stream a live engine consumed
// through a synchronous Replayer must reproduce the engine's output,
// including positions emitted around interleaved flushes (a session's
// idle drains, which the WAL records so replays drain at the same
// points). Every tag's update sequence must match at any shard count,
// and a 1-shard engine's whole update sequence, across tags and drains,
// must equal the Replayer's.
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
				// Flush round-trips every shard, so every OnUpdate call
				// has returned and liveSeq is settled after the last.
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				prev = cut
			}

			// The replayer follows the live schedule: same reports, same
			// drains.
			rp, err := NewReplayer(Config{System: system(t), SweepInterval: sweep})
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
			if len(liveSeq) == 0 {
				t.Fatal("no updates emitted")
			}
			for _, tag := range run.Tags {
				key := tag.EPC.String()
				tagOnly := func(seq []update) []update {
					return slices.DeleteFunc(slices.Clone(seq), func(u update) bool { return u.tag != key })
				}
				live := tagOnly(liveSeq)
				if len(live) == 0 {
					t.Fatalf("tag %s emitted nothing live", key)
				}
				if !slices.Equal(live, tagOnly(replaySeq)) {
					t.Errorf("tag %s: live update sequence differs from replay", key)
				}
			}
			if shards == 1 && !slices.Equal(liveSeq, replaySeq) {
				t.Errorf("1-shard live update sequence (%d points) differs from replay (%d points)",
					len(liveSeq), len(replaySeq))
			}
		})
	}
}

// TestReplayerEndsLostWithLastEpoch: a stream that ends while its tag is
// reacquiring still returns what it traced. The writer teleports
// mid-stream, so tracking is lost, and from then on the coarse reader
// (antennas 5–8) is dead, so acquisition fails from the third sweep
// without it. The result is the last epoch traced before the stream
// ended, not "never acquired", and its epochs hold every emitted
// position: each epoch's chosen trace has one point per emitted
// position, plus the point of the sample that tripped the loss detector.
func TestReplayerEndsLostWithLastEpoch(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	var reports []rfid.Report
	var offset time.Duration
	for _, w := range []struct {
		text string
		at   geom.Vec2
	}{{"on", geom.Vec2{X: 0.5, Z: 1.0}}, {"go", geom.Vec2{X: 1.7, Z: 1.4}}} {
		wr, err := sc.RunWord(w.text, w.at, handwriting.DefaultStyle())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range wr.SamplesRF {
			for id, ph := range s.Phase.All() {
				reports = append(reports, rfid.Report{Time: s.T + offset, ReaderID: (id - 1) / 4, AntennaID: id, EPC: sc.Tag.EPC, PhaseRad: ph})
			}
		}
		offset += wr.SamplesRF[len(wr.SamplesRF)-1].T + 25*time.Millisecond
	}
	sys, err := core.NewSystem(sc.RFIDraw, core.Config{Plane: sc.Plane, Region: sc.Region})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(Config{System: sys, SweepInterval: 25 * time.Millisecond, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	rp.OnUpdate = func(u Update) { emitted += len(u.Positions) }
	lost := false
	for _, rep := range reports {
		if lost && rep.AntennaID >= 5 {
			continue
		}
		if err := rp.Offer(rep); err != nil {
			t.Fatal(err)
		}
		lost = lost || rp.Stats()[0].Reacquisitions > 0
	}
	if err := rp.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rp.Stats()[0]
	if st.Started || st.Reacquisitions == 0 {
		t.Fatalf("started=%v after %d reacquisitions: the stream must end reacquiring", st.Started, st.Reacquisitions)
	}
	res := rp.Results()[0]
	if res.Err != nil {
		t.Fatalf("a tag that emitted %d positions reads %v", emitted, res.Err)
	}
	epochs := res.Result.Epochs
	if len(epochs) != st.Reacquisitions {
		t.Fatalf("%d epochs after %d losses", len(epochs), st.Reacquisitions)
	}
	points := 0
	for _, e := range epochs {
		points += len(e.Best.Trajectory.Points)
	}
	if points != emitted+st.Reacquisitions {
		t.Fatalf("the epochs traced %d points; %d positions were emitted and %d samples lost tracking", points, emitted, st.Reacquisitions)
	}
	last := epochs[len(epochs)-1]
	if res.Result.BestIndex != last.BestIndex || len(res.Result.Best.Trajectory.Points) != len(last.Best.Trajectory.Points) {
		t.Fatal("the result's fields do not describe its last epoch")
	}
}
