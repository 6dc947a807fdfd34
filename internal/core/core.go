// Package core wires RF-IDraw's pieces into one system: the Fig. 6d
// deployment, the two-stage multi-resolution positioner (§5.1) and the
// grating-lobe trajectory tracer (§5.2). It is the engine behind the public
// rfidraw package and the experiment harness.
package core

import (
	"errors"
	"fmt"
	"math/cmplx"
	"sync"

	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// Config assembles a System.
type Config struct {
	// Plane is the writing plane (its Y is the user's distance from the
	// antenna wall).
	Plane geom.Plane
	// Region bounds the search in the writing plane.
	Region geom.Rect
	// CandidateCount is how many candidate initial positions the
	// positioner keeps (§5.2 traces each). Default 5.
	CandidateCount int
	// InitialAverage is how many leading samples are coherently averaged
	// before candidate voting; averaging e^{jφ} across a few sweeps
	// (~tens of ms, during which the hand moves a few centimetres at
	// most) suppresses per-reply phase noise. Default 3.
	InitialAverage int
	// Vote and Trace allow overriding algorithm tunables; zero values
	// take the package defaults.
	Vote  vote.Config
	Trace tracing.Config
}

// System is a configured RF-IDraw instance.
type System struct {
	dep        *deploy.RFIDraw
	positioner *vote.Positioner
	tracer     *tracing.Tracer
	cfg        Config
	// scratch pools reusable search scratches for calls that are not
	// handed an explicit one; the engine's shards pass their own.
	scratch sync.Pool
}

// NewSystem builds a System for a deployment. A nil deployment uses the
// standard one.
func NewSystem(dep *deploy.RFIDraw, cfg Config) (*System, error) {
	var err error
	if dep == nil {
		dep, err = deploy.DefaultRFIDraw()
		if err != nil {
			return nil, err
		}
	}
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("core: degenerate region %+v", cfg.Region)
	}
	if cfg.Plane.Y <= 0 {
		return nil, fmt.Errorf("core: writing plane distance %v must be positive", cfg.Plane.Y)
	}
	if cfg.CandidateCount <= 0 {
		cfg.CandidateCount = 5
	}
	if cfg.InitialAverage <= 0 {
		cfg.InitialAverage = 3
	}
	vc := cfg.Vote
	vc.Plane = cfg.Plane
	vc.Region = cfg.Region
	vc.CandidateCount = cfg.CandidateCount
	positioner, err := vote.NewPositioner(dep.Stage1Pairs(), dep.WidePairs, vc)
	if err != nil {
		return nil, err
	}
	tc := cfg.Trace
	tc.Plane = cfg.Plane
	tc.Region = cfg.Region
	tracer, err := tracing.NewTracer(dep.AllPairs(), tc)
	if err != nil {
		return nil, err
	}
	s := &System{dep: dep, positioner: positioner, tracer: tracer, cfg: cfg}
	s.scratch.New = func() any { return vote.NewScratch() }
	return s, nil
}

// Deployment returns the system's antenna deployment.
func (s *System) Deployment() *deploy.RFIDraw { return s.dep }

// Positioner exposes the multi-resolution positioner.
func (s *System) Positioner() *vote.Positioner { return s.positioner }

// Tracer exposes the trajectory tracer.
func (s *System) Tracer() *tracing.Tracer { return s.tracer }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Localize runs multi-resolution positioning on one observation set.
func (s *System) Localize(obs vote.Observations) ([]vote.Candidate, error) {
	return s.positioner.Candidates(obs)
}

// TraceResult is a full tracing outcome: the chosen trajectory plus every
// candidate's trace for diagnostics (Fig. 10 shows both). A stream is
// traced in epochs (see Tracking): each acquisition starts one, and a
// tracking loss ends it. The fields describe the last acquired epoch;
// Epochs lists them all.
type TraceResult struct {
	// Best is the chosen reconstruction (highest mean trajectory vote).
	Best tracing.Result
	// BestIndex indexes Candidates/All for the chosen one.
	BestIndex int
	// Candidates are the initial positions the positioner proposed, in
	// the order their traces appear in All.
	Candidates []vote.Candidate
	// All are the traces from every candidate, aligned with Candidates.
	All []tracing.Result
	// CandidateStats reports the search work the initial positioning
	// spent (mode, surviving cells, grid evaluations).
	CandidateStats vote.SearchStats
	// LeaderSwitches is how many times the leading hypothesis changed as
	// the multi-hypothesis stream extended — the §5.2 disambiguation
	// visibly converging.
	LeaderSwitches int
	// Retirements is how many candidate hypotheses were retired for a
	// collapsed vote record before the stream ended.
	Retirements int
	// Epochs holds every acquired epoch in stream order, the last one
	// (which the fields above repeat) included. An epoch's own Epochs is
	// nil.
	Epochs []TraceResult
}

// InitialPosition returns the chosen candidate's initial position — the
// system's absolute position estimate (§8.2 evaluates its accuracy).
func (r *TraceResult) InitialPosition() geom.Vec2 {
	return r.Candidates[r.BestIndex].Pos
}

// Trace reconstructs the tag's trajectory from an observation stream: it
// localizes candidate initial positions from the earliest usable sample,
// traces each candidate, and keeps the trajectory with the best vote
// record (§5.2's selection rule).
func (s *System) Trace(samples []tracing.Sample) (*TraceResult, error) {
	return s.TraceWith(nil, samples)
}

// TraceWith is Trace with an explicit reusable search scratch (see
// vote.Scratch): workers that trace many tags — the engine's shards — pin
// one scratch each so the whole pipeline stays allocation-free once warm.
// A nil scratch falls back to the internal pools. The scratch never
// influences results.
//
// TraceWith feeds every sample to a recording Tracking, then ends it:
// the state machine the live tracker (internal/realtime) feeds one sweep
// at a time. So the batch result equals, epoch by epoch, what a recording
// tracker returns for the same samples, tracking-loss detector included.
func (s *System) TraceWith(sc *vote.Scratch, samples []tracing.Sample) (*TraceResult, error) {
	if len(samples) == 0 {
		return nil, errors.New("core: no samples")
	}
	if sc == nil {
		sc = s.scratch.Get().(*vote.Scratch)
		defer s.scratch.Put(sc)
	}
	t := s.NewTracking(sc, 0, true)
	var out []Position
	var err error
	for i := range samples {
		if out, err = t.Push(out[:0], &samples[i], false); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if _, err = t.Push(out[:0], nil, true); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res, err := t.TraceResult()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return res, nil
}

// Acquire finds the earliest sample window the positioner can work with —
// the first few sweeps may miss ports before every antenna has been heard
// — and returns the candidate initial positions, the search stats and the
// window's start index. Phases are averaged coherently over
// InitialAverage samples to suppress reply noise before the initial vote.
//
// complete marks the sample slice as a finished stream: averaging windows
// may then be clamped at the tail. A Tracking still warming up passes
// false, so a window that would be clamped waits for more data instead.
func (s *System) Acquire(sc *vote.Scratch, samples []tracing.Sample, complete bool) ([]vote.Candidate, vote.SearchStats, int, error) {
	if len(samples) == 0 {
		return nil, vote.SearchStats{}, -1, errors.New("core: no samples")
	}
	if sc == nil {
		sc = s.scratch.Get().(*vote.Scratch)
		defer s.scratch.Put(sc)
	}
	var lastErr error
	for i := range samples {
		if !complete && i+s.cfg.InitialAverage > len(samples) {
			break // window would clamp; wait for more data
		}
		obs := averagePhases(samples[i:], s.cfg.InitialAverage)
		c, st, err := s.positioner.CandidatesWith(sc, &obs)
		if err == nil {
			return c, st, i, nil
		}
		lastErr = err
		if i >= 8 {
			break
		}
	}
	if lastErr == nil {
		lastErr = errors.New("not enough samples for an unclamped averaging window")
	}
	return nil, vote.SearchStats{}, -1, fmt.Errorf("core: no usable initial sample: %w", lastErr)
}

// averagePhases coherently averages each antenna's wrapped phase over up to
// k leading samples: the circular mean of e^{jφ}. Each antenna's phasor
// sum runs in sample order. Antennas absent from all samples stay absent.
func averagePhases(samples []tracing.Sample, k int) vote.Observations {
	if k > len(samples) {
		k = len(samples)
	}
	var acc [vote.MaxAntennas]complex128
	for i := 0; i < k; i++ {
		for id, ph := range samples[i].Phase.All() {
			acc[id] += cmplx.Rect(1, ph)
		}
	}
	var obs vote.Observations
	for id, c := range acc {
		// A near-zero phasor sum means the samples disagreed completely;
		// its phase is meaningless, so drop the antenna for this window.
		// An antenna never heard sums to 0 and is dropped too.
		if cmplx.Abs(c) > 1e-6 {
			obs.Set(id, phys.Wrap(cmplx.Phase(c)))
		}
	}
	return obs
}
