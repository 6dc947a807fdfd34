package engine

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/corpus"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
)

// TestQuickTrackingMatchesReplayer is the batch == streaming gate, with
// the served tracking-loss detector on. For every corpus profile (its
// geometry, propagation and seed) it draws one writer's streams: words
// written in turn at places across the region, so the writer teleports
// between them, readers that drop out for runs of sweeps, and drains
// that flush at random sweep boundaries. A recording Replayer fed the
// stream's reports must equal a core.Tracking fed the samples its sweep
// merge closes, each flushed sweep as a final sample: every emitted
// position, the tag's counters and every epoch of its TraceResult, bit
// for bit, or the same terminal failure. Without flushes the Tracking's
// result must also equal System.Trace over those samples.
func TestQuickTrackingMatchesReplayer(t *testing.T) {
	const sweep = 25 * time.Millisecond
	var streams, reacquired, flushed, endedLost int
	for _, prof := range corpus.Profiles() {
		spec, err := deploy.GeometryByName(prof.Geometry)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := spec.BuildDefault()
		if err != nil {
			t.Fatal(err)
		}
		prop := sim.LOS
		if prof.NLOS {
			prop = sim.NLOS
		}
		region := spec.Region()
		scen, err := sim.New(sim.Config{Prop: prop, Seed: prof.Seed, Deployment: dep, Region: region})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(dep, core.Config{Plane: scen.Plane, Region: region})
		if err != nil {
			t.Fatal(err)
		}
		var words [][]tracing.Sample
		for i, text := range []string{"on", "go", "hi", "no"} {
			at := geom.Vec2{
				X: region.Min.X + region.Width()*(0.15+0.22*float64(i)),
				Z: region.Min.Z + region.Height()*(0.3+0.15*float64(i%2)),
			}
			wr, err := scen.RunWord(text, at, handwriting.DefaultStyle())
			if err != nil {
				t.Fatal(err)
			}
			words = append(words, wr.SamplesRF)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			raw := drawStream(rng, words, sweep)
			flush := make([]bool, len(raw))
			if rng.Intn(3) > 0 {
				for k := range flush {
					flush[k] = raw[k].Phase.Len() > 0 && rng.Intn(10) == 0
				}
			}

			// The Replayer, over the stream's reports.
			rp, err := NewReplayer(Config{System: sys, SweepInterval: sweep, RecordTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			var served []realtime.Position
			rp.OnUpdate = func(u Update) { served = append(served, u.Positions...) }
			// A tag's failure surfaces through Results, compared below.
			for k, s := range raw {
				for id, ph := range s.Phase.All() {
					_ = rp.Offer(rfid.Report{Time: s.T, ReaderID: (id - 1) / 4, AntennaID: id, EPC: scen.Tag.EPC, PhaseRad: ph})
				}
				if flush[k] {
					_ = rp.Flush()
				}
			}
			_ = rp.Flush()

			// The Tracking, over the samples the merge closes: a phase
			// stays fresh for the next sweep too, and the last sweep is
			// closed by the Replayer's final flush.
			tk := sys.NewTracking(nil, 0, true)
			var want []realtime.Position
			var samples []tracing.Sample
			var tkErr error
			last := len(raw) - 1
			for last >= 0 && raw[last].Phase.Len() == 0 {
				last--
			}
			for k := 0; k <= last && tkErr == nil; k++ {
				m := raw[k]
				if k > 0 {
					for id, ph := range raw[k-1].Phase.All() {
						if _, ok := m.Phase.Phase(id); !ok {
							m.Phase.Set(id, ph)
						}
					}
				}
				final := flush[k] || k == last
				switch {
				case m.Phase.Len() > 0:
					samples = append(samples, m)
					want, tkErr = tk.Push(want, &m, final)
				case final:
					want, tkErr = tk.Push(want, nil, true)
				}
			}

			streams++
			if tk.Reacquisitions() > 0 {
				reacquired++
				if !tk.Started() {
					endedLost++
				}
			}
			got := rp.Results()[0]
			st := rp.Stats()[0]
			if !bytes.Equal(gobBytes(t, served), gobBytes(t, want)) {
				t.Logf("%s seed %d: the Replayer emitted %d positions, the Tracking %d", prof.Name, seed, len(served), len(want))
				return false
			}
			if st.Started != tk.Started() || st.Reacquisitions != tk.Reacquisitions() || st.SearchEvals != tk.SearchEvals() ||
				st.LeaderSwitches != tk.LeaderSwitches() || st.Retirements != tk.Retirements() || st.Buffered != tk.Buffered() {
				t.Logf("%s seed %d: stats %+v differ from the Tracking's", prof.Name, seed, st)
				return false
			}
			if tkErr != nil {
				if got.Err == nil || !strings.HasSuffix(got.Err.Error(), tkErr.Error()) {
					t.Logf("%s seed %d: the Tracking failed with %v, the Replayer with %v", prof.Name, seed, tkErr, got.Err)
					return false
				}
				return true
			}
			res, err := tk.TraceResult()
			if (err != nil) != (got.Err != nil) || err == nil && !bytes.Equal(gobBytes(t, res), gobBytes(t, got.Result)) {
				t.Logf("%s seed %d: the Tracking's result (%v) differs from the Replayer's (%v)", prof.Name, seed, err, got.Err)
				return false
			}
			for _, fl := range flush {
				if fl {
					flushed++
					return true
				}
			}
			batch, err := sys.Trace(samples)
			if (err != nil) != (res == nil) || err == nil && !bytes.Equal(gobBytes(t, batch), gobBytes(t, res)) {
				t.Logf("%s seed %d: System.Trace (%v) differs from the Tracking", prof.Name, seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(prof.Seed))}); err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
	}
	t.Logf("%d streams: %d reacquired, %d of them ended mid-reacquisition; %d flushed mid-stream", streams, reacquired, endedLost, flushed)
	if reacquired == 0 || endedLost == 0 || flushed == 0 || flushed == streams {
		t.Fatal("the drawn streams do not cover reacquisition, a stream ending lost, flushes and their absence")
	}
}

// drawStream concatenates one to three of the words, end to end on the
// sweep grid, into one stream of samples indexed by sweep (a sweep
// nothing heard is an empty sample), and then drops one reader's
// antennas for a few runs of sweeps.
func drawStream(rng *rand.Rand, words [][]tracing.Sample, sweep time.Duration) []tracing.Sample {
	var raw []tracing.Sample
	for range 1 + rng.Intn(3) {
		offset := len(raw)
		for _, s := range words[rng.Intn(len(words))] {
			k := offset + int(s.T/sweep)
			for len(raw) <= k {
				raw = append(raw, tracing.Sample{T: time.Duration(len(raw)) * sweep})
			}
			raw[k].Phase = s.Phase
		}
	}
	for range rng.Intn(4) {
		reader, from := rng.Intn(2), rng.Intn(len(raw))
		for k := from; k < min(len(raw), from+1+rng.Intn(40)); k++ {
			for id := range raw[k].Phase.All() {
				if (id-1)/4 == reader {
					raw[k].Phase.Forget(id)
				}
			}
		}
	}
	return raw
}

// gobBytes encodes v, so results compare bit for bit.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
