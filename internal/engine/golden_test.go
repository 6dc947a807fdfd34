//go:build amd64

package engine_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/corpus"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// The SHA-256 digests of every output TestGoldenTraces covers. A change
// that moves any vote, candidate, search statistic, trajectory point or
// emitted position by one bit changes one of them: goldenServedHash
// covers what the serving path emits and retraces (the Replayer's
// positions, TagStats and recorded TraceResults), goldenBatchHash the
// batch TraceResults. They are pinned on amd64 only: Go may fuse a
// multiply and an add into one FMA instruction on arm64, ppc64 and s390x,
// which rounds once instead of twice.
const (
	goldenServedHash = "240b74aa6892e141a27cec04d791bc34eecb328b7460c71dc346fd86037dead9"
	goldenBatchHash  = "be4e25b02d891329945ac36590890b1ae7732809f64ec5a07550e50bd2536596"
)

// TestGoldenTraces pins the engine's outputs bit for bit across changes
// to the acquisition and tracking kernels, which must be pure speedups.
// For every corpus profile (its geometry, propagation and seed, two tags
// writing "hi" and "go") it hashes each tag's batch TraceResult into the
// batch digest, and a Replayer run over the profile's faulted report
// stream into the served digest: every emitted position, every tag's
// TagStats and its recorded TraceResult. A last stream teleports one
// writer 1.2 m mid-stream, so the tracker loses its lobe locks and
// reacquires.
func TestGoldenTraces(t *testing.T) {
	h := &digest{Hash: sha256.New()}
	batch := &digest{Hash: sha256.New()}
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
		scen, err := sim.New(sim.Config{Prop: prop, Seed: prof.Seed, Deployment: dep, Region: spec.Region()})
		if err != nil {
			t.Fatal(err)
		}
		run, err := scen.RunWords([]string{"hi", "go"}, []geom.Vec2{{X: 0.5, Z: 1.0}, {X: 1.6, Z: 1.4}})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(dep, core.Config{Plane: scen.Plane, Region: spec.Region()})
		if err != nil {
			t.Fatal(err)
		}
		for tag, samples := range run.SamplesRF {
			res, err := sys.Trace(samples)
			if err != nil {
				t.Fatalf("%s tag %d: %v", prof.Name, tag, err)
			}
			batch.result(res)
		}
		// The serving layer's reorder buffer hands the engine a
		// time-ordered stream; a stable sort stands in for it.
		faulted := prof.Plan().Apply(realtime.MergeStreams(run.ReportsRF...))
		slices.SortStableFunc(faulted, func(a, b rfid.Report) int { return cmp.Compare(a.Time, b.Time) })
		replay(t, h, sys, run.SweepInterval*time.Duration(len(run.Tags)), faulted)
	}

	scen, err := sim.New(sim.Config{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(scen.RFIDraw, core.Config{Plane: scen.Plane, Region: scen.Region})
	if err != nil {
		t.Fatal(err)
	}
	var reports []rfid.Report
	var offset time.Duration
	for _, w := range []struct {
		text string
		at   geom.Vec2
	}{{"on", geom.Vec2{X: 0.5, Z: 1.0}}, {"go", geom.Vec2{X: 1.7, Z: 1.4}}} {
		wr, err := scen.RunWord(w.text, w.at, handwriting.DefaultStyle())
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, reportsFromSamples(wr.SamplesRF, scen.Tag.EPC, offset)...)
		offset += wr.SamplesRF[len(wr.SamplesRF)-1].T + 25*time.Millisecond
	}
	if stats := replay(t, h, sys, 25*time.Millisecond, reports); stats[0].Reacquisitions == 0 {
		t.Fatal("the teleport stream never reacquired")
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenServedHash {
		t.Errorf("served digest %s, want %s: a change moved a served output", got, goldenServedHash)
	}
	if got := hex.EncodeToString(batch.Sum(nil)); got != goldenBatchHash {
		t.Errorf("batch digest %s, want %s: a change moved a batch output", got, goldenBatchHash)
	}
}

// replay runs reports through a recording Replayer, hashing every
// emitted position, then each tag's stats and result, and returns the
// stats.
func replay(t *testing.T, h *digest, sys *core.System, sweep time.Duration, reports []rfid.Report) []engine.TagStats {
	t.Helper()
	rp, err := engine.NewReplayer(engine.Config{System: sys, SweepInterval: sweep, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	rp.OnUpdate = func(u engine.Update) {
		h.str(u.Tag)
		h.int(int64(len(u.Positions)))
		for _, p := range u.Positions {
			h.int(int64(p.Time))
			h.floats(p.Pos.X, p.Pos.Z, p.Confidence)
			h.bool(p.Switched)
			h.int(int64(p.Hypotheses))
		}
	}
	for _, rep := range reports {
		if err := rp.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := rp.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := rp.Stats()
	for _, st := range stats {
		h.str(st.Tag)
		h.int(int64(st.Positions))
		h.bool(st.Started)
		h.floats(st.MeanVote)
		for _, n := range []int{st.Reacquisitions, st.Hypotheses, st.LeaderSwitches, st.Retirements, st.Buffered, st.SearchEvals} {
			h.int(int64(n))
		}
		h.err(st.Err)
	}
	for _, r := range rp.Results() {
		h.str(r.Tag)
		h.err(r.Err)
		if r.Err == nil {
			h.result(r.Result)
		}
	}
	return stats
}

// reportsFromSamples turns merged samples back into one report per heard
// antenna, in ID order, shifted by offset.
func reportsFromSamples(samples []tracing.Sample, epc rfid.EPC, offset time.Duration) []rfid.Report {
	var out []rfid.Report
	for _, s := range samples {
		for id, ph := range s.Phase.All() {
			out = append(out, rfid.Report{
				Time:      s.T + offset,
				ReaderID:  (id - 1) / 4,
				AntennaID: id,
				EPC:       epc,
				PhaseRad:  ph,
			})
		}
	}
	return out
}

// digest writes values into a hash in a fixed binary form, floats as
// their exact bits.
type digest struct{ hash.Hash }

func (d *digest) int(v int64) { _ = binary.Write(d, binary.LittleEndian, v) }

func (d *digest) bool(v bool) { _ = binary.Write(d, binary.LittleEndian, v) }

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.int(int64(math.Float64bits(v)))
	}
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	_, _ = d.Write([]byte(s))
}

func (d *digest) err(err error) {
	if err == nil {
		d.str("")
		return
	}
	d.str(err.Error())
}

func (d *digest) stats(s vote.SearchStats) {
	for _, n := range []int{int(s.Mode), s.Stage1Points, s.Cells, s.GridEvals} {
		d.int(int64(n))
	}
}

func (d *digest) result(r *core.TraceResult) {
	d.stats(r.CandidateStats)
	d.int(int64(r.BestIndex))
	d.int(int64(r.LeaderSwitches))
	d.int(int64(r.Retirements))
	d.int(int64(len(r.Candidates)))
	for _, c := range r.Candidates {
		d.floats(c.Pos.X, c.Pos.Z, c.Score)
	}
	d.int(int64(len(r.All)))
	for _, res := range r.All {
		d.int(int64(len(res.Trajectory.Points)))
		for _, p := range res.Trajectory.Points {
			d.int(int64(p.T))
			d.floats(p.Pos.X, p.Pos.Z)
		}
		d.int(int64(len(res.Votes)))
		d.floats(res.Votes...)
		d.floats(res.TotalVote)
		d.int(int64(len(res.LockedLobes)))
		for _, k := range res.LockedLobes {
			d.int(int64(k))
		}
		d.int(int64(res.SearchEvals))
		d.bool(res.Retired)
	}
}
