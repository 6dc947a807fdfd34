package server

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/corpus"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/traj"
	"rfidraw/internal/wal"
)

// The TestScenario* suite drives every named corpus profile through the
// serving layer and holds the PR's adversarial gates: faultgen output is
// reproducible byte-for-byte from (profile, seed); the live==WAL-retrace
// equivalence chain stays gob-byte-identical under every fault profile
// (crash image mid-fault, no clean close); and faulted runs degrade
// gracefully against the clean control. The CI scenario matrix runs one
// profile per job via RFIDRAW_SCENARIO_PROFILE.

// profilesUnderTest honors the CI matrix's profile filter.
func profilesUnderTest(t *testing.T) []corpus.Profile {
	t.Helper()
	name := os.Getenv("RFIDRAW_SCENARIO_PROFILE")
	if name == "" {
		return corpus.Profiles()
	}
	p, err := corpus.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return []corpus.Profile{p}
}

// profileRun is one profile's cached simulated scenario: the clean run
// and the faulted report stream in arrival order. Faults are applied to
// the merged (true-time-ordered) stream, not per reader: arrival order
// is wall-clock order, so a reader whose clock is skewed hands the session
// timestamps that genuinely disagree with its neighbors' — re-sorting by
// the faulted timestamps would hide exactly the disorder the reorder
// window exists to absorb.
type profileRun struct {
	run     *sim.MultiWordRun
	merged  []rfid.Report // unfaulted, true arrival order
	faulted []rfid.Report
	sweep   time.Duration // per-tag cadence
}

var (
	profileRunMu sync.Mutex
	profileRuns  = map[string]*profileRun{}
)

// scenarioFor builds (once per profile) the simulated scenario on the
// profile's geometry and propagation, then applies its fault plan.
func scenarioFor(t *testing.T, p corpus.Profile) *profileRun {
	t.Helper()
	profileRunMu.Lock()
	defer profileRunMu.Unlock()
	if pr, ok := profileRuns[p.Name]; ok {
		return pr
	}
	spec, err := deploy.GeometryByName(p.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := spec.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	prop := sim.LOS
	if p.NLOS {
		prop = sim.NLOS
	}
	sc, err := sim.New(sim.Config{
		Prop:       prop,
		Seed:       p.Seed,
		Deployment: dep,
		Region:     spec.Region(),
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sc.RunWords(
		[]string{"hi", "go"},
		[]geom.Vec2{{X: 0.5, Z: 1.0}, {X: 1.6, Z: 1.4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	merged := realtime.MergeStreams(run.ReportsRF...)
	pr := &profileRun{
		run:     run,
		merged:  merged,
		faulted: p.Plan().Apply(merged),
		sweep:   run.SweepInterval * time.Duration(len(run.Tags)),
	}
	profileRuns[p.Name] = pr
	return pr
}

// TestScenarioFaultgenReproducible: a profile's faulted streams are a
// pure function of (profile, seed) — two applications are byte-identical.
func TestScenarioFaultgenReproducible(t *testing.T) {
	for _, p := range profilesUnderTest(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			pr := scenarioFor(t, p)
			again := p.Plan().Apply(pr.merged)
			if !bytes.Equal(gobBytes(t, pr.faulted), gobBytes(t, again)) {
				t.Fatalf("profile %s: fault application is not reproducible", p.Name)
			}
			// Splitting per reader and faulting the splits must agree with
			// faulting the merged stream: the per-reader rng streams are
			// keyed by reader, not by slice.
			split := p.Plan().ApplyAll(pr.run.ReportsRF)
			perReader := map[int][]rfid.Report{}
			for _, rep := range pr.faulted {
				perReader[rep.ReaderID] = append(perReader[rep.ReaderID], rep)
			}
			for i, s := range split {
				if !bytes.Equal(gobBytes(t, s), gobBytes(t, perReader[i])) {
					t.Fatalf("profile %s: reader %d: split-faulted stream disagrees with merged-faulted", p.Name, i)
				}
			}
			if reseed := (corpus.Profile{Name: p.Name, Seed: p.Seed + 1, Faults: p.Faults}); p.Plan().Active() &&
				hasRandomFault(p) &&
				bytes.Equal(gobBytes(t, pr.faulted), gobBytes(t, reseed.Plan().Apply(pr.merged))) {
				t.Fatalf("profile %s: seed does not drive fault randomness", p.Name)
			}
		})
	}
}

// hasRandomFault reports whether any of the profile's faults consume the
// seeded random stream (deterministic faults are seed-invariant).
func hasRandomFault(p corpus.Profile) bool {
	for _, f := range p.Faults {
		if f.DuplicateProb > 0 || f.ShuffleWindow > 0 {
			return true
		}
	}
	return false
}

// requireSameResults asserts two result sets are identical: same tags in
// the same order, same error-ness, and gob-byte-identical traces.
func requireSameResults(t *testing.T, label string, a, b []engine.TagResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d tags vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Tag != b[i].Tag {
			t.Fatalf("%s: tag order %s vs %s", label, a[i].Tag, b[i].Tag)
		}
		if (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("%s: tag %s: error mismatch: %v vs %v", label, a[i].Tag, a[i].Err, b[i].Err)
		}
		if a[i].Err != nil {
			continue
		}
		if !bytes.Equal(gobBytes(t, a[i].Result), gobBytes(t, b[i].Result)) {
			t.Fatalf("%s: tag %s: results differ byte-for-byte", label, a[i].Tag)
		}
	}
}

// TestScenarioEquivalenceChain is the adversarial gate, per profile: the
// live == WAL-retrace chain (crashChain) must hold for a session fed the
// first two thirds of the faulted stream, so the crash lands mid-fault
// (inside death intervals, dropout periods and duplicate bursts) with no
// close record. This also covers WAL recovery for dup-flood and
// reader-loss: the crash lands inside their fault windows.
func TestScenarioEquivalenceChain(t *testing.T) {
	for _, p := range profilesUnderTest(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			pr := scenarioFor(t, p)
			if len(pr.faulted) == 0 {
				t.Fatal("faulted scenario produced no reports")
			}
			spec := SessionSpec{ID: "scen-" + p.Name, Sweep: pr.sweep, Geometry: p.Geometry}
			live, sess2 := crashChain(t, spec, pr.faulted[:2*len(pr.faulted)/3])
			if p.Name == "clean" {
				for _, r := range live {
					if r.Err != nil {
						t.Fatalf("clean profile: tag %s failed live: %v", r.Tag, r.Err)
					}
				}
			}
			if sess2.Geometry() != p.Geometry {
				t.Fatalf("recovered geometry %q, want %q (WAL meta lost it)", sess2.Geometry(), p.Geometry)
			}
		})
	}
}

// TestScenarioLateJoinerSeesLiveEvents: under every fault profile, at
// every tier, a subscriber that joins after the faulted stream with a
// catch-up from 0 gets per tag exactly the point, stroke and glyph
// events a live subscriber at that tier got.
func TestScenarioLateJoinerSeesLiveEvents(t *testing.T) {
	for _, p := range profilesUnderTest(t) {
		t.Run(p.Name, func(t *testing.T) {
			pr := scenarioFor(t, p)
			store, err := wal.Open(t.TempDir(), wal.Options{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			reg := testRegistry(t, RegistryConfig{NewReplayer: testReplayerFactory(t), WAL: store})
			live, caught := streamTiers(t, reg, SessionSpec{ID: "join-" + p.Name, Sweep: pr.sweep, Geometry: p.Geometry},
				pr.faulted, func(uint64) []uint64 { return []uint64{0} })
			for tier := range live {
				label := fmt.Sprintf("%s tier %d", p.Name, tier)
				want := tagEvents(t, label+" live", live[tier], false, 0)
				if len(want) == 0 {
					t.Fatalf("%s: live stream has no tag events", label)
				}
				requireTagSuffixes(t, label+" from 0", tagEvents(t, label+" from 0", caught[0][tier], true, 0), want, true)
				t.Logf("%s: %v", label, countByType(live[tier]))
			}
		})
	}
}

// TestScenarioReorderLate: the drift profile's 40ms skew exceeds the 25ms
// reorder window, so late deliveries must be counted — and the clean
// profile must count none. (The per-session counter feeds the
// rfidrawd_reorder_late_total metric.)
func TestScenarioReorderLate(t *testing.T) {
	for _, p := range profilesUnderTest(t) {
		p := p
		if p.Name != "clean" && p.Name != "drift" {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			pr := scenarioFor(t, p)
			reg := walRegistry(t, t.TempDir())
			sess, err := reg.Open(SessionSpec{ID: "late-" + p.Name, Sweep: pr.sweep, Geometry: p.Geometry})
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range pr.faulted {
				if err := sess.Offer(rep); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.Flush(); err != nil {
				t.Fatal(err)
			}
			late := sess.reorderLate.Load()
			if p.Name == "drift" && late == 0 {
				t.Fatal("drift profile: skew beyond the reorder window counted no late reports")
			}
			if p.Name == "clean" && late != 0 {
				t.Fatalf("clean profile counted %d late reports", late)
			}
			if got := reg.metrics.ReorderLate.Load(); got != late {
				t.Fatalf("registry metric %d != session counter %d", got, late)
			}
		})
	}
}

// meanTraceError is the mean per-tag median position error of successful
// traces against ground truth; ok is how many tags traced at all.
func meanTraceError(t *testing.T, pr *profileRun, results []engine.TagResult) (mean float64, ok int) {
	t.Helper()
	byTag := map[string]int{}
	for i, tag := range pr.run.Tags {
		byTag[tag.EPC.String()] = i
	}
	var sum float64
	for _, r := range results {
		if r.Err != nil || r.Result == nil {
			continue
		}
		i, found := byTag[r.Tag]
		if !found {
			t.Fatalf("traced unknown tag %s", r.Tag)
		}
		med, err := traj.MedianError(pr.run.Truths[i], r.Result.Best.Trajectory, traj.AlignInitial, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += med
		ok++
	}
	if ok == 0 {
		return 0, 0
	}
	return sum / float64(ok), ok
}

// TestScenarioGracefulDegradation: faulted single-room profiles must
// still trace (no ingest stall, points produced) with position error
// bounded relative to the clean control — faults degrade the trace, they
// must not detonate it. The multiroom profile only has to keep the
// equivalence chain (covered above): its second room's arrays hear the
// tag from far outside the calibrated regime.
func TestScenarioGracefulDegradation(t *testing.T) {
	clean, err := corpus.ProfileByName("clean")
	if err != nil {
		t.Fatal(err)
	}
	cleanPR := scenarioFor(t, clean)
	reg := walRegistry(t, t.TempDir())
	sessClean, err := reg.Open(SessionSpec{ID: "degrade-clean", Sweep: cleanPR.sweep})
	if err != nil {
		t.Fatal(err)
	}
	cleanResults := traceAll(t, sessClean, cleanPR)
	cleanErr, cleanOK := meanTraceError(t, cleanPR, cleanResults)
	if cleanOK != len(cleanPR.run.Tags) {
		t.Fatalf("clean control traced %d/%d tags", cleanOK, len(cleanPR.run.Tags))
	}
	if cleanErr > 0.25 {
		t.Fatalf("clean control error %.1f cm — control itself is broken", cleanErr*100)
	}

	for _, p := range profilesUnderTest(t) {
		p := p
		if p.Name == "clean" || p.Name == "multiroom" {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			pr := scenarioFor(t, p)
			sess, err := reg.Open(SessionSpec{ID: "degrade-" + p.Name, Sweep: pr.sweep, Geometry: p.Geometry})
			if err != nil {
				t.Fatal(err)
			}
			results := traceAll(t, sess, pr)
			faultErr, ok := meanTraceError(t, pr, results)
			if ok == 0 {
				t.Fatalf("profile %s: no tag traced at all", p.Name)
			}
			// Generous absolute ceiling: faults may cost accuracy, but a
			// bounded amount — a detonated trace lands meters away or
			// nowhere.
			if faultErr > cleanErr+0.75 {
				t.Fatalf("profile %s: error %.1f cm vs clean %.1f cm — degradation unbounded",
					p.Name, faultErr*100, cleanErr*100)
			}
			t.Logf("profile %s: %d/%d tags, error %.1f cm (clean %.1f cm)",
				p.Name, ok, len(pr.run.Tags), faultErr*100, cleanErr*100)
		})
	}
}

// traceAll feeds the full faulted stream and returns the session's
// retrace.
func traceAll(t *testing.T, sess *Session, pr *profileRun) []engine.TagResult {
	t.Helper()
	for _, rep := range pr.faulted {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	results, _, err := sess.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	return results
}
