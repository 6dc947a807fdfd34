// Package sim assembles end-to-end experiment scenarios: a room (LOS or
// NLOS), the RF-IDraw and baseline deployments with their readers, a user
// writing a word in the air with a tag, the VICON ground truth, and the
// merged per-sweep observation streams both positioning schemes consume.
//
// It is the reproduction's equivalent of the paper's physical testbeds:
// the 5×6 m VICON room (LOS, §7) and the 8×12 m cubicle office lounge
// (NLOS, §8.1).
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"rfidraw/internal/antenna"
	"rfidraw/internal/channel"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/rfid"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vicon"
	"rfidraw/internal/vote"
)

// Propagation selects line-of-sight or non-line-of-sight conditions.
type Propagation int

const (
	// LOS is the VICON-room line-of-sight condition.
	LOS Propagation = iota
	// NLOS is the office-lounge condition: the direct path penetrates
	// 20 cm of two-layer wood cubicle separators (§8.1).
	NLOS
)

// String implements fmt.Stringer.
func (p Propagation) String() string {
	if p == NLOS {
		return "NLOS"
	}
	return "LOS"
}

// Scenario is one fully wired experiment environment.
type Scenario struct {
	// Prop records the propagation condition.
	Prop Propagation
	// Plane is the writing plane (distance from the antenna wall).
	Plane geom.Plane
	// Region is the search region in the writing plane.
	Region geom.Rect
	// RFIDraw and Baseline are the two compared deployments.
	RFIDraw  *deploy.RFIDraw
	Baseline *deploy.Baseline
	// Env is the shared propagation environment.
	Env *channel.Environment
	// Tag is the tag on the user's hand.
	Tag rfid.Tag

	readersRF []*rfid.Reader  // one per RF-IDraw reader array, in reader-ID order
	readersBL [2]*rfid.Reader // left and bottom arrays
	rng       *rand.Rand
}

// Readers returns the number of RF-IDraw reader arrays in the scenario
// (two for the default geometry, more for multi-room deployments).
func (s *Scenario) Readers() int { return len(s.readersRF) }

// Config tunes scenario construction.
type Config struct {
	// Prop selects LOS or NLOS.
	Prop Propagation
	// Distance is the user's distance from the antenna wall in metres
	// (the paper evaluates 2–5 m). Default 2.
	Distance float64
	// Scatterers is the number of multipath reflectors. Defaults: 6 for
	// LOS, 10 for NLOS (cubicle furniture and separators).
	Scatterers int
	// PhaseNoise is the per-measurement phase noise stddev in radians.
	// Default 0.12 (≈7°), a typical reader phase jitter.
	PhaseNoise float64
	// NLOSDirectGain is the direct-path amplitude gain in NLOS. The
	// paper's NLOS results degrade only mildly (§8.1), implying the
	// attenuated direct path still dominates; default 0.6.
	NLOSDirectGain float64
	// Seed drives all randomness in the scenario.
	Seed int64
	// Deployment overrides the RF-IDraw antenna deployment (heterogeneous
	// geometries: multi-room, rotated). Nil means the paper's default
	// Fig. 6d placement. The scenario builds one reader per distinct
	// ReaderID in the deployment's antennas.
	Deployment *deploy.RFIDraw
	// Region overrides the writing-plane search region; the zero Rect
	// means deploy.DefaultRegion(). Geometries with more rooms need a
	// region covering them (deploy.GeometrySpec.Region).
	Region geom.Rect
}

func (c Config) withDefaults() Config {
	if c.Distance <= 0 {
		c.Distance = 2
	}
	if c.Scatterers <= 0 {
		if c.Prop == NLOS {
			c.Scatterers = 8
		} else {
			c.Scatterers = 6
		}
	}
	if c.PhaseNoise <= 0 {
		c.PhaseNoise = 0.12
	}
	if c.NLOSDirectGain <= 0 {
		c.NLOSDirectGain = 0.6
	}
	return c
}

// New builds a scenario: deployments, environment with random scatterers,
// readers and a tag, all seeded deterministically.
func New(cfg Config) (*Scenario, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	rf := cfg.Deployment
	if rf == nil {
		var err error
		rf, err = deploy.DefaultRFIDraw()
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	bl, err := deploy.DefaultBaseline()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	// Scatterers live in the volume between the wall and just beyond the
	// user. Reflectivities are modest in LOS; in NLOS the separators add
	// stronger reflectors while the direct path is attenuated.
	lo := geom.Vec3{X: -1, Y: 0.3, Z: 0}
	hi := geom.Vec3{X: 3.6, Y: cfg.Distance + 1.5, Z: 2.6}
	maxRefl := 0.18
	if cfg.Prop == NLOS {
		maxRefl = 0.15
	}
	scatterers := channel.RandomScatterers(rng, cfg.Scatterers, lo, hi, 0.05, maxRefl)
	var env *channel.Environment
	if cfg.Prop == NLOS {
		env = channel.NLOS(cfg.PhaseNoise, cfg.NLOSDirectGain, scatterers...)
	} else {
		env = channel.LOS(cfg.PhaseNoise, scatterers...)
	}

	region := cfg.Region
	if region.Width() <= 0 || region.Height() <= 0 {
		region = deploy.DefaultRegion()
	}
	s := &Scenario{
		Prop:     cfg.Prop,
		Plane:    geom.Plane{Y: cfg.Distance},
		Region:   region,
		RFIDraw:  rf,
		Baseline: bl,
		Env:      env,
		Tag:      rfid.NewTag(rng),
		rng:      rng,
	}

	mkReader := func(id int, ants []antenna.Antenna) (*rfid.Reader, error) {
		cfgR := rfid.DefaultReaderConfig(id, ants)
		cfgR.PhaseOffsetRad = rng.Float64() * 6.28 // uncalibrated per-reader offset
		if cfg.Prop == NLOS {
			// The cubicle separators attenuate the carrier ≈18 dB round
			// trip; the lounge deployment compensates with higher reader
			// transmit power, keeping tags readable through 5 m as the
			// paper's NLOS experiments require (§8.1).
			cfgR.WakePowerDB = -47
		}
		return rfid.NewReader(cfgR, env)
	}
	// One simulated reader per distinct ReaderID in the deployment, in
	// reader-ID order. Grouping must visit the rng in a fixed order so
	// seeded runs on the default geometry reproduce the historical stream
	// (reader A, reader B, then the two baseline arrays).
	groups := map[int][]antenna.Antenna{}
	maxReader := -1
	for _, a := range rf.Antennas {
		groups[a.ReaderID] = append(groups[a.ReaderID], a)
		if a.ReaderID > maxReader {
			maxReader = a.ReaderID
		}
	}
	for id := 0; id <= maxReader; id++ {
		ants, ok := groups[id]
		if !ok {
			return nil, fmt.Errorf("sim: deployment has no antennas for reader %d", id)
		}
		r, err := mkReader(id, ants)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		s.readersRF = append(s.readersRF, r)
	}
	if s.readersBL[0], err = mkReader(deploy.ReaderA, bl.Left.Elements); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if s.readersBL[1], err = mkReader(deploy.ReaderB, bl.Bottom.Elements); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return s, nil
}

// RNG exposes the scenario's seeded random source for callers that layer
// extra randomness (user styles, word choice) on the same stream.
func (s *Scenario) RNG() *rand.Rand { return s.rng }

// WordRun is the result of one user writing one word in the scenario.
type WordRun struct {
	// Word is the written word with its letter segmentation.
	Word handwriting.Word
	// Truth is the VICON-captured ground truth trajectory.
	Truth traj.Trajectory
	// SamplesRF are the merged per-sweep observations for RF-IDraw's
	// eight antennas.
	SamplesRF []tracing.Sample
	// SamplesBL are the merged observations for the baseline's arrays.
	SamplesBL []tracing.Sample
}

// RunWord simulates a user writing text starting at start in the writing
// plane, with the given style, and returns both schemes' observation
// streams plus ground truth.
func (s *Scenario) RunWord(text string, start geom.Vec2, style handwriting.Style) (*WordRun, error) {
	word, err := handwriting.Write(text, start, style, s.rng)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	truth, err := vicon.Capture(word.Traj, vicon.DefaultConfig(), s.rng)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	at := func(t time.Duration) geom.Vec3 {
		p, err := word.Traj.At(t)
		if err != nil {
			return geom.Vec3{}
		}
		return s.Plane.To3D(p)
	}
	dur := word.Traj.Duration() + 50*time.Millisecond
	samplesRF, err := s.observe(s.readersRF, dur, at)
	if err != nil {
		return nil, err
	}
	samplesBL, err := s.observe(s.readersBL[:], dur, at)
	if err != nil {
		return nil, err
	}
	return &WordRun{Word: word, Truth: truth, SamplesRF: samplesRF, SamplesBL: samplesBL}, nil
}

// MultiWordRun is the result of several users writing words at the same
// time, each with their own tag. Gen-2 singulation splits each reader's
// airtime round-robin across the tags, so per-tag read rate divides by the
// user count — the scaling regime §2 of the paper claims and the
// concurrent engine is built for.
type MultiWordRun struct {
	// Tags are the per-user tags; Tags[0] is the scenario's own tag.
	Tags []rfid.Tag
	// Words are the written words, aligned with Tags.
	Words []handwriting.Word
	// Truths are the VICON-captured ground-truth trajectories.
	Truths []traj.Trajectory
	// SamplesRF[i] is tag i's merged per-sweep observation stream over
	// RF-IDraw's eight antennas — the batch pipeline's input.
	SamplesRF [][]tracing.Sample
	// ReportsRF[r] is RF reader r's raw interleaved reply stream with all
	// tags mixed together, in time order — what a real reader delivers on
	// the wire and what the streaming engine demultiplexes.
	ReportsRF [][]rfid.Report
	// SweepInterval is the readers' sweep period; each tag is visited
	// every len(Tags) sweeps.
	SweepInterval time.Duration
}

// RunWords simulates len(texts) users writing concurrently, user i
// starting text i at starts[i] with a per-user random style. It returns
// both the per-tag merged sample streams and the raw per-reader report
// streams.
func (s *Scenario) RunWords(texts []string, starts []geom.Vec2) (*MultiWordRun, error) {
	if len(texts) == 0 || len(texts) != len(starts) {
		return nil, fmt.Errorf("sim: RunWords needs matching texts (%d) and starts (%d)", len(texts), len(starts))
	}
	n := len(texts)
	run := &MultiWordRun{
		Tags:   make([]rfid.Tag, n),
		Words:  make([]handwriting.Word, n),
		Truths: make([]traj.Trajectory, n),
	}
	tracks := make([]func(time.Duration) geom.Vec3, n)
	var dur time.Duration
	for i := range texts {
		if i == 0 {
			run.Tags[i] = s.Tag
		} else {
			run.Tags[i] = rfid.NewTag(s.rng)
		}
		word, err := handwriting.Write(texts[i], starts[i], handwriting.RandomStyle(s.rng), s.rng)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		truth, err := vicon.Capture(word.Traj, vicon.DefaultConfig(), s.rng)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		run.Words[i] = word
		run.Truths[i] = truth
		wt := word.Traj
		tracks[i] = func(t time.Duration) geom.Vec3 {
			p, err := wt.At(t)
			if err != nil {
				return geom.Vec3{}
			}
			return s.Plane.To3D(p)
		}
		if d := word.Traj.Duration(); d > dur {
			dur = d
		}
	}
	dur += 100 * time.Millisecond

	sweep := s.readersRF[0].Config().SweepInterval
	run.SweepInterval = sweep
	// With airtime split N ways a tag is revisited every N sweeps, so the
	// safe last-known-phase hold scales accordingly (cf. the 2-sweep hold
	// of single-tag observation).
	maxAge := 2*time.Duration(n)*sweep + 5*time.Millisecond
	run.ReportsRF = make([][]rfid.Report, len(s.readersRF))
	merged := make([]map[time.Duration]*vote.Observations, n)
	for i := range merged {
		merged[i] = map[time.Duration]*vote.Observations{}
	}
	for ri, r := range s.readersRF {
		reports, err := r.InventoryMulti(dur, run.Tags, tracks, s.rng)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		run.ReportsRF[ri] = reports
		for ti, tag := range run.Tags {
			for _, snap := range rfid.GroupSweeps(reports, tag.EPC, sweep, maxAge) {
				obs, ok := merged[ti][snap.Time]
				if !ok {
					obs = &vote.Observations{}
					merged[ti][snap.Time] = obs
				}
				for id, ph := range snap.Phase {
					obs.Set(id, ph)
				}
			}
		}
	}
	run.SamplesRF = make([][]tracing.Sample, n)
	for ti := range run.Tags {
		var out []tracing.Sample
		for t := time.Duration(0); t <= dur; t += sweep {
			if obs, ok := merged[ti][t]; ok {
				out = append(out, tracing.Sample{T: t, Phase: *obs})
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("sim: no observations for tag %d (out of range?)", ti)
		}
		run.SamplesRF[ti] = out
	}
	return run, nil
}

// StaticRun produces observation streams for a stationary tag, used by the
// positioning (Fig. 6/12) experiments.
func (s *Scenario) StaticRun(pos geom.Vec2, dur time.Duration) (rf, bl []tracing.Sample, err error) {
	at := func(time.Duration) geom.Vec3 { return s.Plane.To3D(pos) }
	rf, err = s.observe(s.readersRF, dur, at)
	if err != nil {
		return nil, nil, err
	}
	bl, err = s.observe(s.readersBL[:], dur, at)
	if err != nil {
		return nil, nil, err
	}
	return rf, bl, nil
}

// observe runs both readers over the tag trajectory and merges their
// per-sweep snapshots into combined samples.
func (s *Scenario) observe(readers []*rfid.Reader, dur time.Duration, at func(time.Duration) geom.Vec3) ([]tracing.Sample, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration %v", dur)
	}
	sweep := readers[0].Config().SweepInterval
	// Holding a lost port's phase for too long corrupts wide-pair votes:
	// at hand speed the round-trip path changes a quarter turn in tens of
	// milliseconds. Two sweeps is the longest safe hold.
	const maxAge = 55 * time.Millisecond
	merged := map[time.Duration]*vote.Observations{}
	for _, r := range readers {
		reports := r.Inventory(dur, s.Tag, at, s.rng)
		for _, snap := range rfid.GroupSweeps(reports, s.Tag.EPC, sweep, maxAge) {
			obs, ok := merged[snap.Time]
			if !ok {
				obs = &vote.Observations{}
				merged[snap.Time] = obs
			}
			for id, ph := range snap.Phase {
				obs.Set(id, ph)
			}
		}
	}
	out := make([]tracing.Sample, 0, len(merged))
	for t := time.Duration(0); t <= dur; t += sweep {
		if obs, ok := merged[t]; ok {
			out = append(out, tracing.Sample{T: t, Phase: *obs})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sim: no observations (tag out of range?)")
	}
	return out, nil
}
