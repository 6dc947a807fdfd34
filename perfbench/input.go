package main

import (
	"fmt"
	"sort"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/traj"
)

// loopPause separates repetitions of a scenario in stream time, as
// cmd/loadgen's loopGap does: long enough for strokes to finalize, so
// every writer reacquires at the start of its next word.
const loopPause = 800 * time.Millisecond

// scenario is a workload's generated input: one or more realizations of
// the same writers writing the same words, each merged into the single
// time-ordered reader stream the benchmark sends on its one reader
// connection, repeated back to back with loopPause between them.
type scenario struct {
	reals   []realization
	writers []string // EPC hex, in writer order
	sweep   time.Duration
	// cycle is the stream time of one pass over every realization;
	// cycleReports the reports in that pass.
	cycle        time.Duration
	cycleReports int
}

// realization is one simulated pass of every writer's word.
type realization struct {
	reports []rfid.Report
	truths  []traj.Trajectory // ground truth, aligned with scenario.writers
	start   time.Duration     // offset of this realization within a cycle
	period  time.Duration     // last report time + loopPause
	first   int               // index of its first report within a cycle
}

// newScenario simulates one pass of texts written from starts in each
// of the seeded rooms, one realization per room, so a cycle's words vary
// in handwriting, noise and multipath alike. The writers' tags are
// renamed to the first pass's EPCs, so the daemon sees the same writers
// come back word after word.
func newScenario(rooms []int64, texts []string, starts []geom.Vec2) (*scenario, error) {
	out := &scenario{}
	for j, seed := range rooms {
		sc, err := sim.New(sim.Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		run, err := sc.RunWords(texts, starts)
		if err != nil {
			return nil, err
		}
		sweep := run.SweepInterval * time.Duration(len(run.Tags))
		if j == 0 {
			for _, tag := range run.Tags {
				out.writers = append(out.writers, tag.EPC.String())
			}
			out.sweep = sweep
		}
		if sweep != out.sweep || len(run.Tags) != len(out.writers) {
			return nil, fmt.Errorf("room seed %d: %d tags every %v, the first room %d every %v", seed, len(run.Tags), sweep, len(out.writers), out.sweep)
		}
		rename := map[rfid.EPC]rfid.EPC{}
		for i, tag := range run.Tags {
			epc, err := rfid.ParseEPC(out.writers[i])
			if err != nil {
				return nil, err
			}
			rename[tag.EPC] = epc
		}
		merged := realtime.MergeStreams(run.ReportsRF...)
		if len(merged) == 0 {
			return nil, fmt.Errorf("room seed %d: no reports", seed)
		}
		for k := range merged {
			merged[k].EPC = rename[merged[k].EPC]
		}
		period := merged[len(merged)-1].Time + loopPause
		out.reals = append(out.reals, realization{
			reports: merged,
			truths:  run.Truths,
			start:   out.cycle,
			period:  period,
			first:   out.cycleReports,
		})
		out.cycle += period
		out.cycleReports += len(merged)
	}
	return out, nil
}

// loopOf maps a loop index to its realization and stream-time offset.
func (s *scenario) loopOf(loop int) (*realization, time.Duration) {
	r := &s.reals[loop%len(s.reals)]
	return r, time.Duration(loop/len(s.reals))*s.cycle + r.start
}

// at returns report i of the looped stream: the realization's report
// shifted to its loop's start.
func (s *scenario) at(i int) rfid.Report {
	c, k := i/s.cycleReports, i%s.cycleReports
	j := sort.Search(len(s.reals), func(j int) bool { return s.reals[j].first > k }) - 1
	r := &s.reals[j]
	rep := r.reports[k-r.first]
	rep.Time += time.Duration(c)*s.cycle + r.start
	return rep
}

// locate maps a stream time to the loop it falls in and the time within
// that loop's realization.
func (s *scenario) locate(t time.Duration) (loop int, local time.Duration) {
	c := int(t / s.cycle)
	rem := t - time.Duration(c)*s.cycle
	j := sort.Search(len(s.reals), func(j int) bool { return s.reals[j].start > rem }) - 1
	return c*len(s.reals) + j, rem - s.reals[j].start
}

// due is when report i is scheduled to leave the generator, as an offset
// from the session's start, at rate times real time.
func (s *scenario) due(i int, rate float64) time.Duration {
	return time.Duration(float64(s.at(i).Time) / rate)
}

// reorderWindow is the daemon's cross-reader resequencing window
// (rfidrawd -reorder): a report reaches the engine once a report this
// much later in stream time has arrived.
const reorderWindow = 25 * time.Millisecond

// release is the index of the report whose arrival releases report i
// from the reorder buffer — the first of the n sent at least
// reorderWindow later — or false when only a drain releases it.
func (s *scenario) release(i, n int) (int, bool) {
	t := s.at(i).Time + reorderWindow
	j := i + 1 + sort.Search(n-i-1, func(k int) bool { return s.at(i+1+k).Time >= t })
	return j, j < n
}

// stream walks the looped stream report by report without materializing
// it.
type stream struct {
	s    *scenario
	loop int
	k    int
	off  time.Duration
	r    *realization
}

func (s *scenario) stream() *stream {
	st := &stream{s: s}
	st.r, st.off = s.loopOf(0)
	return st
}

func (st *stream) next() rfid.Report {
	rep := st.r.reports[st.k]
	rep.Time += st.off
	st.k++
	if st.k == len(st.r.reports) {
		st.loop++
		st.k = 0
		st.r, st.off = st.s.loopOf(st.loop)
	}
	return rep
}

// loopsIn counts the loops the first n reports of the stream complete.
func (s *scenario) loopsIn(n int) int {
	loops, rem := n/s.cycleReports*len(s.reals), n%s.cycleReports
	for _, r := range s.reals {
		if r.first+len(r.reports) <= rem {
			loops++
		}
	}
	return loops
}

// reports materializes the first n reports of the looped stream.
func (s *scenario) reports(n int) []rfid.Report {
	out := make([]rfid.Report, n)
	st := s.stream()
	for i := range out {
		out[i] = st.next()
	}
	return out
}
