// Package tracing implements RF-IDraw's trajectory tracing algorithm (§5.2
// of the paper). Starting from a candidate initial position, it:
//
//  1. locks each antenna pair onto the grating lobe closest to that
//     position (fixing the integer k of Eq. 2);
//  2. unwraps each pair's phase-difference track over time so the locked
//     lobe rotates continuously instead of jumping at 2π boundaries;
//  3. estimates each next position by maximising the total fixed-lobe vote
//     over a vicinity of the current position;
//  4. accumulates the total vote along the trajectory, which the caller
//     uses to pick the best candidate: wrong initial positions produce
//     lobes that stop intersecting coherently and their vote collapses
//     (Fig. 10f).
//
// The incremental multi-hypothesis core is MultiStream: one lobe-locked
// stream per candidate initial position, advanced sample-by-sample with a
// running-mean-vote leader and per-hypothesis retirement. Everything else
// is a scheduler over it — batch Trace replays a sample slice through a
// single-candidate MultiStream, Stream wraps one for live single-candidate
// use, and the batch/live pipelines in internal/core and internal/realtime
// replay the multi-candidate form.
//
// # Concurrency
//
// A Tracer is immutable after construction; Trace allocates all per-trace
// state per call, so one Tracer may be shared by any number of goroutines
// — the multi-tag engine's shards trace different tags through one Tracer
// concurrently. A Stream or MultiStream, by contrast, carries mutable
// lobe-lock and unwrap state for one live trace and must be confined to a
// single goroutine.
package tracing

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"rfidraw/internal/antenna"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// Sample is one merged observation instant: the wrapped phase of every
// antenna that was heard around time T. It is a fixed-size value.
type Sample struct {
	T     time.Duration
	Phase vote.Observations
}

// Config tunes the tracer.
type Config struct {
	// Plane is the writing plane positions live in.
	Plane geom.Plane
	// Region clips the search; estimates never leave it.
	Region geom.Rect
	// VicinityRadius bounds how far the estimate may move per sample
	// (m). Default 0.08 — a hand moving ≤ 3 m/s at 25 ms sweeps.
	VicinityRadius float64
	// VicinityStep is the dense scan's vicinity lattice step (m); the
	// default hierarchical step solves for the optimum instead of
	// sampling a lattice and ignores it. Default 0.01.
	VicinityStep float64
	// FineStep is the dense scan's final pattern-search step (m), and
	// the distance within which a hypothesis counts as coincident with
	// the leader. Default 0.002.
	FineStep float64
	// MinPairs is the minimum number of observable pairs per sample;
	// samples with fewer are skipped (reply loss). Default 4.
	MinPairs int
	// Search picks the per-sample step: the default (SearchHierarchical)
	// solves for the vote maximum near the last fix by damped
	// Gauss–Newton, SearchDense scans the whole vicinity lattice. Its
	// TopK and Levels apply to the positioner only.
	Search vote.SearchConfig
	// RetireAfter is the multi-hypothesis decision window, in usable
	// samples: before it no hypothesis is retired for its vote record,
	// after it collapsed records retire and MaxHypotheses applies.
	// Default 16.
	RetireAfter int
	// MaxHypotheses caps how many hypotheses stay active once the
	// decision window has passed: the leader plus the best challengers
	// by mean vote. Steady-state tracking cost is proportional to the
	// active set, and past the first few dozen samples extra candidates
	// are insurance, not coverage (wrong ones have either collapsed or
	// are shape-equivalent nearby lobes). Default 2; negative removes
	// the cap.
	MaxHypotheses int
	// RetireMargin is the mean-vote gap below the leader at which a
	// trailing hypothesis is retired (votes are ≤ 0, so the gap is
	// positive). Default 0.5 — far beyond the spread healthy candidates
	// show, so only collapsed vote records (Fig. 10f) retire. Negative
	// disables retirement.
	RetireMargin float64
	// SwitchMargin is the election hysteresis: a challenger must beat
	// the current leader's mean vote by this much to take leadership.
	// Near-equivalent hypotheses (nearby lobes, Fig. 7) have mean votes
	// within noise of each other, and flapping between them would inject
	// position jumps into the live trajectory; a decisive gap only opens
	// when the leader's vote record is actually collapsing. Default
	// 0.02; negative selects the strict argmax.
	SwitchMargin float64
}

func (c Config) withDefaults() Config {
	if c.VicinityRadius <= 0 {
		c.VicinityRadius = 0.08
	}
	if c.VicinityStep <= 0 {
		c.VicinityStep = 0.01
	}
	if c.FineStep <= 0 {
		c.FineStep = 0.002
	}
	if c.MinPairs <= 0 {
		c.MinPairs = 4
	}
	if c.RetireAfter <= 0 {
		c.RetireAfter = 16
	}
	if c.MaxHypotheses == 0 {
		c.MaxHypotheses = 2
	}
	if c.RetireMargin == 0 {
		c.RetireMargin = 0.5
	}
	if c.SwitchMargin == 0 {
		c.SwitchMargin = 0.02
	}
	return c
}

// Tracer traces trajectories for a fixed set of antenna pairs.
type Tracer struct {
	pairs []antenna.Pair
	// kernel evaluates the pairs' fixed-lobe votes; pair i of the kernel
	// is pairs[i], which is also a pairTrack and lobe-lock index.
	kernel *antenna.Kernel
	// ends[i] holds pair i's two antenna IDs: the sweep slots observe
	// reads.
	ends [][2]int
	cfg  Config
	// scratch pools reusable search state for Trace calls that are not
	// handed an explicit scratch; the engine's shards pass their own.
	scratch sync.Pool
}

// NewTracer builds a tracer over the given pairs (normally the
// deployment's AllPairs).
func NewTracer(pairs []antenna.Pair, cfg Config) (*Tracer, error) {
	if len(pairs) < 3 {
		return nil, fmt.Errorf("tracing: need ≥3 pairs for an over-constrained system, got %d", len(pairs))
	}
	cfg = cfg.withDefaults()
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("tracing: degenerate region %+v", cfg.Region)
	}
	if err := vote.CheckAntennaIDs(pairs); err != nil {
		return nil, fmt.Errorf("tracing: %w", err)
	}
	tr := &Tracer{pairs: pairs, kernel: antenna.NewKernel(pairs), ends: make([][2]int, len(pairs)), cfg: cfg}
	for i, p := range pairs {
		tr.ends[i] = [2]int{p.I.ID, p.J.ID}
	}
	tr.scratch.New = func() any { return vote.NewScratch() }
	return tr, nil
}

// Config returns the effective (defaulted) configuration.
func (tr *Tracer) Config() Config { return tr.cfg }

// pairTrack is one pair's unwrapped phase-difference track. It is a
// property of the observation stream, not of a hypothesis: every
// hypothesis of a stream sees the same samples, so a MultiStream keeps
// one track per pair and advances it once per sample. The i-th track
// belongs to the tracer's i-th pair. A hypothesis holds only the lobe
// each pair is locked to (§5.2: "identifies the grating lobe ... closest
// to this position, and keeps tracking the continuous rotation of this
// grating lobe"), one lobe index per pair beside the track.
type pairTrack struct {
	// turns is the unwrapped phase-difference track in turns.
	turns float64
	// seen marks whether the pair has ever been observed.
	seen bool
}

// Result is one traced trajectory with its vote record.
type Result struct {
	// Trajectory is the reconstructed trace.
	Trajectory traj.Trajectory
	// Votes is the total vote at every traced sample (Fig. 10f's curve).
	Votes []float64
	// TotalVote is the sum of Votes — the trajectory-selection score.
	TotalVote float64
	// LockedLobes maps pair index → the lobe each pair was locked to.
	LockedLobes []int
	// SearchEvals is how much vote-surface work the per-sample steps
	// spent over the whole trace: vote evaluations, plus the default
	// step's Jacobian passes, each counted as one. Divided by len(Votes)
	// it is the steady-state evaluations-per-sample metric the benchmark
	// suite tracks.
	SearchEvals int
	// Retired reports the hypothesis was retired before the stream ended
	// (its vote record collapsed, Fig. 10f); the trajectory is truncated
	// at the retirement sample.
	Retired bool
}

// LobeOverride forces a pair onto a lobe offset from the nearest one; the
// Fig. 7 experiment uses it to demonstrate wrong-lobe shape resilience.
type LobeOverride struct {
	// PairIndex indexes the tracer's pair list.
	PairIndex int
	// DeltaK is added to the locked lobe index.
	DeltaK int
}

// Trace reconstructs a trajectory from samples, starting at the candidate
// initial position. Overrides, if any, displace the initial lobe locks.
func (tr *Tracer) Trace(initial geom.Vec2, samples []Sample, overrides ...LobeOverride) (Result, error) {
	return tr.TraceWith(nil, initial, samples, overrides...)
}

// TraceWith is Trace with an explicit reusable search scratch, for callers
// that pin one per worker (the engine's shards). A nil scratch borrows
// from the tracer's internal pool. The scratch never influences results;
// it only avoids allocation.
//
// Trace is literally a replay of the streaming path: the samples are
// pushed one by one through a single-candidate MultiStream and its
// recorded result returned, so batch and live tracing cannot diverge.
func (tr *Tracer) TraceWith(sc *vote.Scratch, initial geom.Vec2, samples []Sample, overrides ...LobeOverride) (Result, error) {
	if len(samples) == 0 {
		return Result{}, errors.New("tracing: no samples")
	}
	if sc == nil {
		sc = tr.scratch.Get().(*vote.Scratch)
		defer tr.scratch.Put(sc)
	}
	ms, err := tr.NewMultiStreamWith(sc, []vote.Candidate{{Pos: initial}}, samples[0], MultiConfig{Record: true}, overrides...)
	if err != nil {
		return Result{}, err
	}
	for _, s := range samples {
		ms.Push(s)
	}
	all, _, _, err := ms.Results()
	if err != nil {
		return Result{}, err
	}
	return all[0], nil
}

// pairObs is one pair's observable in one sample: its phase difference
// in turns, and whether both of its elements were heard.
type pairObs struct {
	turns float64
	ok    bool
}

// observe computes every pair's observable in obs into out (one slot per
// tracer pair), once per sample for all hypotheses: vote.PairTurns,
// read from the sweep's slots of the pair's two antenna IDs.
func (tr *Tracer) observe(obs *vote.Observations, out []pairObs) {
	for i, e := range tr.ends {
		pi, okI := obs.Phase(e[0])
		pj, okJ := obs.Phase(e[1])
		if okI && okJ {
			out[i] = pairObs{turns: antenna.PhaseDiffTurns(pi, pj), ok: true}
		} else {
			out[i] = pairObs{}
		}
	}
}

// update advances each pair's unwrapped track with the sample's
// observables, appends to fresh[:0] the pairs it sees for the first time
// (each hypothesis then locks them against its own position, lockFresh)
// and returns them with the number of pairs observable this sample.
func update(track []pairTrack, obs []pairObs, fresh []int) ([]int, int) {
	fresh = fresh[:0]
	active := 0
	for i := range track {
		if !obs[i].ok {
			continue
		}
		st, t := &track[i], obs[i].turns
		if !st.seen {
			st.turns = t
			st.seen = true
			fresh = append(fresh, i)
		} else {
			// Unwrap in turns: move to the congruent value nearest
			// the previous track point.
			st.turns = phys.UnwrapNext(st.turns*phys.TwoPi, t*phys.TwoPi) / phys.TwoPi
		}
		active++
	}
	return fresh, active
}

// lockFresh locks each pair in fresh, first seen this sample, to the
// lobe nearest the hypothesis's current position estimate cur.
func (tr *Tracer) lockFresh(lobes, fresh []int, track []pairTrack, cur geom.Vec2) {
	if len(fresh) == 0 {
		return
	}
	cur3 := tr.cfg.Plane.To3D(cur)
	for _, i := range fresh {
		lobes[i] = tr.pairs[i].NearestLobe(cur3, track[i].turns)
	}
}

// stepBufs are a stream's buffers for the per-sample step, shared by
// its hypotheses: trial takes a trial position's antenna distances
// (Antennas slots), turns each seen pair's F·Δd/λ at the position voted
// last (one slot per pair), and dir the kernel's direction derivatives
// (2·Antennas slots).
type stepBufs struct {
	trial, turns, dir []float64
}

// fixedVote sums every seen pair's fixed-lobe vote at the position whose
// antenna distances dist holds (the kernel's Antennas slots), and writes
// each seen pair's F·Δd/λ there into turns for the Jacobian pass.
func (tr *Tracer) fixedVote(track []pairTrack, lobes []int, dist, turns []float64) float64 {
	var sum float64
	for i := range track {
		if !track[i].seen {
			continue
		}
		t := tr.kernel.DeltaDistTurns(i, dist)
		turns[i] = t
		sum += antenna.FixedLobeVote(t, track[i].turns, lobes[i])
	}
	return sum
}

// voteAt takes pos's antenna distances into dist and returns fixedVote
// there.
func (tr *Tracer) voteAt(track []pairTrack, lobes []int, pos geom.Vec2, dist, turns []float64) float64 {
	tr.kernel.Distances(tr.cfg.Plane.To3D(pos), dist)
	return tr.fixedVote(track, lobes, dist, turns)
}

// step finds the position in the vicinity of cur maximising the total
// fixed-lobe vote of the track under a hypothesis's lobe locks, and
// returns it with the vote there and the number of evaluations spent.
// dist holds cur's antenna distances on entry, which a hypothesis keeps
// from its last step, and the returned position's on return. The
// default mode solves for the maximum (solve); dense mode is the
// original exhaustive lattice scan plus shrinking pattern search, kept
// as the reference.
func (tr *Tracer) step(track []pairTrack, lobes []int, cur geom.Vec2, dist []float64, b *stepBufs) (geom.Vec2, float64, int) {
	if tr.cfg.Search.Mode == vote.SearchHierarchical {
		return tr.solve(track, lobes, cur, dist, b)
	}
	best := cur
	bestV := tr.fixedVote(track, lobes, dist, b.turns)
	evals := 1
	try := func(cand geom.Vec2) bool {
		evals++
		v := tr.voteAt(track, lobes, cand, b.trial, b.turns)
		if v > bestV {
			bestV, best = v, cand
			copy(dist, b.trial)
			return true
		}
		return false
	}
	r := tr.cfg.VicinityRadius
	s := tr.cfg.VicinityStep
	for dx := -r; dx <= r+1e-12; dx += s {
		for dz := -r; dz <= r+1e-12; dz += s {
			try(tr.cfg.Region.Clip(geom.Vec2{X: cur.X + dx, Z: cur.Z + dz}))
		}
	}
	// Refine with a shrinking 3×3 pattern search down to FineStep.
	step := s / 2
	for step >= tr.cfg.FineStep {
		improved := false
		for dx := -1; dx <= 1; dx++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dz == 0 {
					continue
				}
				if try(tr.cfg.Region.Clip(geom.Vec2{X: best.X + float64(dx)*step, Z: best.Z + float64(dz)*step})) {
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return best, bestV, evals
}

// The Gauss–Newton step's constants: at most solveIters linearisations
// per sample, each followed by at most 1+solveRetries damped trial
// moves. Damping starts at 0 (a pure Gauss–Newton step), rises
// ×solveDampFactor after a rejected move (to at least solveDampFloor)
// and falls ÷solveDampFactor after an accepted one. An accepted move
// shorter than solveMinMove ends the solve.
const (
	solveIters      = 12
	solveRetries    = 8
	solveDampFactor = 10
	solveDampFloor  = 1e-3
	solveMinMove    = 1e-6 // m
)

// solve maximises the total fixed-lobe vote near cur by damped
// Gauss–Newton (Levenberg–Marquardt). With every seen pair locked to one
// lobe the vote is −Σ r², r = F·Δd/λ − unwrapped − k, a smooth sum of
// squared residuals that is unimodal near the last fix (§5.2's lobe
// lock). Each iteration linearises the residuals at the current answer
// (one Jacobian pass through the kernel), solves the Marquardt-damped
// 2×2 normal equations, clamps the move to ±VicinityRadius around cur
// and then to the region, and accepts it only if the vote strictly
// rises; a rejected move raises the damping and retries. The returned
// vote is the fixedVote of the returned position, and the count
// includes Jacobian passes. dist is step's: cur's distances on entry,
// the answer's on return.
func (tr *Tracer) solve(track []pairTrack, lobes []int, cur geom.Vec2, dist []float64, b *stepBufs) (geom.Vec2, float64, int) {
	r := tr.cfg.VicinityRadius
	window := geom.Rect{Min: geom.Vec2{X: cur.X - r, Z: cur.Z - r}, Max: geom.Vec2{X: cur.X + r, Z: cur.Z + r}}
	best := cur
	bestV := tr.fixedVote(track, lobes, dist, b.turns)
	evals := 1
	damp := 0.0
	for iter := 0; iter < solveIters; iter++ {
		// The last vote was taken at best: b.turns holds its values.
		jxx, jxz, jzz, gx, gz := tr.normalEquations(track, lobes, best, dist, b)
		evals++
		short := true
		for try := 0; try <= solveRetries; try++ {
			axx, azz := jxx*(1+damp), jzz*(1+damp)
			det := axx*azz - jxz*jxz
			if !(det > 0) {
				break // singular, or not finite at an antenna: keep best
			}
			cand := geom.Vec2{
				X: best.X - (azz*gx-jxz*gz)/det,
				Z: best.Z - (axx*gz-jxz*gx)/det,
			}
			cand = tr.cfg.Region.Clip(window.Clip(cand))
			v := tr.voteAt(track, lobes, cand, b.trial, b.turns)
			evals++
			if v > bestV {
				// The move's length is math.Hypot of its axis offsets,
				// never below either, so an offset of solveMinMove or
				// more settles the test without it.
				dx, dz := math.Abs(cand.X-best.X), math.Abs(cand.Z-best.Z)
				short = dx < solveMinMove && dz < solveMinMove && cand.Dist(best) < solveMinMove
				best, bestV = cand, v
				copy(dist, b.trial)
				damp /= solveDampFactor
				break
			}
			damp = max(damp*solveDampFactor, solveDampFloor)
		}
		if short {
			break
		}
	}
	return best, bestV, evals
}

// normalEquations is one Jacobian pass at pos, whose distances dist
// holds and whose pairs' F·Δd/λ the vote just taken there left in
// b.turns: the entries of JᵀJ and Jᵀr for the seen pairs' residuals
// r = F·Δd/λ − unwrapped − k, J = ∂r/∂(x, z). It takes every antenna's
// distance derivatives once into b.dir, and each pair's gradient reads
// its two elements' slots.
func (tr *Tracer) normalEquations(track []pairTrack, lobes []int, pos geom.Vec2, dist []float64, b *stepBufs) (jxx, jxz, jzz, gx, gz float64) {
	tr.kernel.Directions(tr.cfg.Plane.To3D(pos), dist, b.dir)
	for i := range track {
		if !track[i].seen {
			continue
		}
		dx, dz := tr.kernel.Grad(i, b.dir)
		r := b.turns[i] - track[i].turns - float64(lobes[i])
		jxx += dx * dx
		jxz += dx * dz
		jzz += dz * dz
		gx += dx * r
		gz += dz * r
	}
	return jxx, jxz, jzz, gx, gz
}

// Stream incrementally extends a single candidate's trace: the online
// variant of Trace for live tracking, a thin wrapper over a
// single-hypothesis MultiStream. Lobe locks are fixed at creation; each
// Push consumes one sample and, when enough pairs are observable,
// produces the next position.
type Stream struct {
	ms *MultiStream
}

// NewStream locks pair lobes against the initial position using the first
// sample and returns a ready stream. The first sample only initialises
// state; it does not emit a position (Push it again if desired).
func (tr *Tracer) NewStream(initial geom.Vec2, first Sample) (*Stream, error) {
	return tr.NewStreamWith(nil, initial, first)
}

// NewStreamWith is NewStream with an explicit reusable search scratch; the
// engine's shards pass their per-shard one so every live tag on a shard
// shares it. A nil scratch allocates a private one. Like the stream
// itself, the scratch is confined to the stream's goroutine.
func (tr *Tracer) NewStreamWith(sc *vote.Scratch, initial geom.Vec2, first Sample) (*Stream, error) {
	ms, err := tr.NewMultiStreamWith(sc, []vote.Candidate{{Pos: initial}}, first, MultiConfig{})
	if err != nil {
		return nil, err
	}
	return &Stream{ms: ms}, nil
}

// Push consumes one sample. ok is false when the sample was skipped for
// reply loss; otherwise point is the new position estimate and vote the
// total pair vote there.
func (s *Stream) Push(sample Sample) (point traj.Point, vote float64, ok bool) {
	st, ok := s.ms.Push(sample)
	if !ok {
		return traj.Point{}, 0, false
	}
	return st.Point, st.Vote, true
}

// SearchEvals returns the cumulative step evaluation count — the live
// counterpart of Result.SearchEvals.
func (s *Stream) SearchEvals() int { return s.ms.SearchEvals() }

// Position returns the current estimate.
func (s *Stream) Position() geom.Vec2 { return s.ms.LeaderPosition() }

// MeanVote returns the stream's mean vote so far (0 before any sample).
func (s *Stream) MeanVote() float64 { return s.ms.LeaderMeanVote() }

func meanVote(r Result) float64 {
	if len(r.Votes) == 0 {
		return 0
	}
	return r.TotalVote / float64(len(r.Votes))
}
