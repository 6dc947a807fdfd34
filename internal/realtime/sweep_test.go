package realtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// mapMerge is the sweep merge as the tracker wrote it over maps: every
// report goes into a map by antenna ID, a sweep's sample is the map's
// entries younger than 2.2 sweep intervals, and a sweep without one is
// skipped. Flush closes the current sweep once per batch of reports.
type mapMerge struct {
	interval time.Duration
	latest   map[int]timedPhase
	next     time.Duration
	dirty    bool
	samples  []mapSample
}

type mapSample struct {
	t     time.Duration
	phase map[int]float64
}

func (m *mapMerge) offer(rep rfid.Report) {
	m.dirty = true
	for rep.Time >= m.next+m.interval {
		m.close()
	}
	m.latest[rep.AntennaID] = timedPhase{phase: rep.PhaseRad, t: rep.Time}
}

func (m *mapMerge) flush() {
	if m.dirty {
		m.dirty = false
		m.close()
	}
}

func (m *mapMerge) close() {
	now := m.next
	m.next += m.interval
	maxAge := m.interval * 11 / 5
	obs := map[int]float64{}
	for id, tp := range m.latest {
		if now+m.interval-tp.t <= maxAge {
			obs[id] = tp.phase
		}
	}
	if len(obs) > 0 {
		m.samples = append(m.samples, mapSample{t: now, phase: obs})
	}
}

// sweepStream draws a time-ordered report stream: runs of reports that
// hear only antenna IDs no Observations holds alternate with mixed runs
// over the deployment's antennas 1–5, IDs inside the dense range that no
// pair reads, and the same large and negative IDs; antennas repeat
// within a sweep, gaps of up to eight sweeps leave phases stale, and a
// flush follows about one report in twenty.
func sweepStream(rng *rand.Rand, interval time.Duration, n int) (reps []rfid.Report, flushAfter []bool) {
	paired := []int{1, 2, 3, 4, 5}
	unpaired := []int{0, 9, 17, vote.MaxAntennas - 1}
	outside := []int{vote.MaxAntennas, 40, 1000, -1, -7}
	var at time.Duration
	onlyOutside := false
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			onlyOutside = rng.Intn(3) == 0
		}
		switch r := rng.Float64(); {
		case r < 0.6:
			at += time.Duration(rng.Intn(10)) * time.Millisecond
		case r < 0.9:
			at += interval
		default:
			at += time.Duration(2+rng.Intn(7)) * interval
		}
		var id int
		switch r := rng.Float64(); {
		case onlyOutside || r < 0.2:
			id = outside[rng.Intn(len(outside))]
		case r < 0.4:
			id = unpaired[rng.Intn(len(unpaired))]
		default:
			id = paired[rng.Intn(len(paired))]
		}
		reps = append(reps, rfid.Report{Time: at, AntennaID: id, PhaseRad: rng.Float64() * 6.28})
		flushAfter = append(flushAfter, rng.Intn(20) == 0)
	}
	return reps, flushAfter
}

// TestQuickSweepMergeMatchesMapReference holds the tracker's dense sweep
// merge to the map-based one: over random streams with repeated
// antennas, stale phases, IDs outside every pair and outside the dense
// range (whole sweeps of only those among them) and interleaved flushes,
// the tracker's sweeps, closed as Offer and Flush close them, hold
// exactly the reference's samples, with the same times and, for every ID
// an Observations holds, the same phases.
func TestQuickSweepMergeMatchesMapReference(t *testing.T) {
	sys, err := core.NewSystem(nil, core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()})
	if err != nil {
		t.Fatal(err)
	}
	const interval = 25 * time.Millisecond
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := NewTracker(Config{System: sys, SweepInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		var got []tracing.Sample
		closeSweep := func() {
			if s, heard := tr.sweep(); heard {
				got = append(got, s)
			}
		}
		ref := &mapMerge{interval: interval, latest: map[int]timedPhase{}}
		reps, flushAfter := sweepStream(rng, interval, 300)
		dirty := false
		for i, rep := range reps {
			dirty = true
			for rep.Time >= tr.nextSweep+interval {
				closeSweep()
			}
			tr.hold(rep)
			ref.offer(rep)
			if flushAfter[i] && dirty {
				dirty = false
				closeSweep()
			}
			if flushAfter[i] {
				ref.flush()
			}
		}
		if len(got) != len(ref.samples) {
			t.Logf("seed %d: %d samples, reference %d", seed, len(got), len(ref.samples))
			return false
		}
		for i, want := range ref.samples {
			got := &got[i]
			inRange := 0
			for id, ph := range want.phase {
				if uint(id) >= vote.MaxAntennas {
					continue
				}
				inRange++
				if p, ok := got.Phase.Phase(id); !ok || p != ph {
					t.Logf("seed %d sample %d: antenna %d reads (%v, %v), reference %v", seed, i, id, p, ok, ph)
					return false
				}
			}
			if got.T != want.t || got.Phase.Len() != inRange {
				t.Logf("seed %d sample %d: t %v with %d phases, reference t %v with %d", seed, i, got.T, got.Phase.Len(), want.t, inRange)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerWarmupSweepAllocs gates warm-up buffering: a sweep closed
// before acquisition copies its fixed-size sample into the warm-up
// buffer, which a new tracker sizes for the warm-up, so it allocates
// nothing. Each run closes the first sweep of a fresh tracker, built
// before the measurement.
func TestTrackerWarmupSweepAllocs(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("clear", geom.Vec2{X: 0.6, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 40
	trackers := make([]*Tracker, runs+1) // AllocsPerRun runs once more to warm up
	for i := range trackers {
		trackers[i] = newTracker(t, sc)
	}
	reports := reportsFromSamples(wr, sc.Tag.EPC)
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tr := trackers[run]
		run++
		for next := 0; tr.nextSweep == 0; next++ {
			if _, err := tr.Offer(reports[next]); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, tr := range trackers {
		if tr.Started() || tr.Buffered() != 1 {
			t.Fatalf("started=%v with %d buffered: a run did not buffer one warm-up sweep", tr.Started(), tr.Buffered())
		}
	}
	if allocs != 0 {
		t.Fatalf("a warm-up sweep costs %v allocations, want 0", allocs)
	}
}
