package tracing

import (
	"errors"
	"fmt"

	"rfidraw/internal/geom"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// MultiConfig tunes a MultiStream beyond the tracer's Config defaults.
// The zero value takes every default: retirement per the tracer's
// RetireAfter/RetireMargin, no recording.
type MultiConfig struct {
	// RetireAfter overrides the tracer's Config.RetireAfter (minimum
	// usable samples before a hypothesis may be retired); 0 inherits.
	RetireAfter int
	// RetireMargin overrides the tracer's Config.RetireMargin (mean-vote
	// gap to the leader at which a trailing hypothesis retires); 0
	// inherits, negative disables retirement for this stream.
	RetireMargin float64
	// SwitchMargin overrides the tracer's Config.SwitchMargin (election
	// hysteresis); 0 inherits, negative selects the strict argmax.
	SwitchMargin float64
	// MaxHypotheses overrides the tracer's Config.MaxHypotheses (the
	// post-decision-window active-set cap); 0 inherits, negative
	// removes the cap.
	MaxHypotheses int
	// Record retains every hypothesis's full trajectory and vote record
	// so Results can materialize the batch outcome. Batch tracing sets
	// it; live trackers normally leave it off to keep per-tag memory
	// bounded by hypothesis count, not stream length.
	Record bool
}

// hypothesis is one candidate initial position's lobe-locked stream
// state: its lobe lock per pair over the stream's shared track, and its
// position with that position's antenna distances, which the next
// sample's first vote reads.
type hypothesis struct {
	initial  vote.Candidate
	lobes    []int
	pos      geom.Vec2
	dist     []float64
	total    float64
	count    int
	evals    int
	lastVote float64
	retired  bool
	// nearLeader counts consecutive samples this hypothesis's position
	// has coincided with the leader's (the duplicate-merge detector).
	nearLeader int
	// points and votes are populated only in Record mode.
	points []traj.Point
	votes  []float64
}

// Step is one MultiStream advance: the current leader's new position and
// the hypothesis-set signals around it.
type Step struct {
	// Point is the leader's new position estimate.
	Point traj.Point
	// Vote is the leader's total pair vote at Point (≤ 0, nearer 0 is
	// better).
	Vote float64
	// MeanVote is the leader's running mean vote — the live confidence
	// signal (it collapses when tracking is lost, Fig. 10f).
	MeanVote float64
	// Leader indexes the leading hypothesis (the stream's candidate
	// order).
	Leader int
	// Switched reports that the leadership changed at this sample: the
	// paper's over-time disambiguation selecting a different candidate.
	Switched bool
	// Active is the number of unretired hypotheses after this sample.
	Active int
}

// MultiStream advances a set of per-candidate lobe-locked streams
// sample-by-sample — the incremental multi-hypothesis core of §5.2. One
// MultiStream is one tracking epoch of core.Tracking, which batch Trace,
// the live tracker and every replay run alike: a tracking loss ends it
// and the next acquisition seeds a new one. So batch and streaming
// results are equal epoch by epoch for the same samples.
//
// Leadership follows the running mean vote (the §5.2 selection rule
// applied continuously); hypotheses whose vote record collapses relative
// to the leader are retired (Fig. 10f) and stop consuming search work.
// A MultiStream is confined to a single goroutine.
type MultiStream struct {
	tr          *Tracer
	cfg         MultiConfig
	sc          *vote.Scratch
	hyps        []hypothesis
	leader      int
	emitted     bool
	switches    int
	retirements int
	// obs holds the current sample's pair observables.
	obs []pairObs
	// track is the stream's unwrapped track, one per pair, advanced once
	// per sample for every hypothesis; fresh lists the pairs the current
	// sample showed for the first time, which each hypothesis locks.
	track []pairTrack
	fresh []int
	// bufs are the step's buffers; trial is the scratch's distance
	// buffer, borrowed per sample.
	bufs stepBufs
}

// NewMultiStream is NewMultiStreamWith with a private scratch.
func (tr *Tracer) NewMultiStream(cands []vote.Candidate, first Sample, cfg MultiConfig) (*MultiStream, error) {
	return tr.NewMultiStreamWith(nil, cands, first, cfg)
}

// NewMultiStreamWith seeds one lobe-locked hypothesis per candidate
// against the first sample. The first sample only initialises lock
// state; Push it again to trace it.
// Overrides displace every hypothesis's initial lobe locks (the Fig. 7
// experiment). A nil scratch allocates a private one; the scratch is
// confined to the stream's goroutine and never influences results.
func (tr *Tracer) NewMultiStreamWith(sc *vote.Scratch, cands []vote.Candidate, first Sample, cfg MultiConfig, overrides ...LobeOverride) (*MultiStream, error) {
	if len(cands) == 0 {
		return nil, errors.New("tracing: no candidate initial positions")
	}
	if cfg.RetireAfter <= 0 {
		cfg.RetireAfter = tr.cfg.RetireAfter
	}
	if cfg.RetireMargin == 0 {
		cfg.RetireMargin = tr.cfg.RetireMargin
	}
	if cfg.SwitchMargin == 0 {
		cfg.SwitchMargin = tr.cfg.SwitchMargin
	}
	if cfg.SwitchMargin < 0 {
		cfg.SwitchMargin = 0
	}
	if cfg.MaxHypotheses == 0 {
		cfg.MaxHypotheses = tr.cfg.MaxHypotheses
	}
	if sc == nil {
		sc = vote.NewScratch()
	}
	// One slab holds every hypothesis's distances and the stream's turns
	// and direction buffers, another every hypothesis's lobe locks.
	nAnt, nPair := tr.kernel.Antennas(), len(tr.pairs)
	slab := make([]float64, len(cands)*nAnt+nPair+2*nAnt)
	lobes := make([]int, len(cands)*nPair)
	ms := &MultiStream{
		tr: tr, cfg: cfg, sc: sc, hyps: make([]hypothesis, len(cands)),
		obs: make([]pairObs, nPair), track: make([]pairTrack, nPair), fresh: make([]int, 0, nPair),
	}
	ms.bufs.turns, slab = slab[:nPair:nPair], slab[nPair:]
	ms.bufs.dir, slab = slab[:2*nAnt:2*nAnt], slab[2*nAnt:]
	tr.observe(&first.Phase, ms.obs)
	var observed int
	ms.fresh, observed = update(ms.track, ms.obs, ms.fresh)
	if observed < tr.cfg.MinPairs {
		return nil, fmt.Errorf("tracing: only %d pairs observed at start, need ≥%d", observed, tr.cfg.MinPairs)
	}
	for hi := range cands {
		h := &ms.hyps[hi]
		h.initial = cands[hi]
		h.lobes = lobes[hi*nPair : (hi+1)*nPair : (hi+1)*nPair]
		h.dist = slab[hi*nAnt : (hi+1)*nAnt : (hi+1)*nAnt]
		tr.lockFresh(h.lobes, ms.fresh, ms.track, cands[hi].Pos)
		for _, ov := range overrides {
			if ov.PairIndex < 0 || ov.PairIndex >= len(h.lobes) {
				return nil, fmt.Errorf("tracing: override pair index %d out of range", ov.PairIndex)
			}
			h.lobes[ov.PairIndex] += ov.DeltaK
		}
		h.pos = tr.cfg.Region.Clip(cands[hi].Pos)
		tr.kernel.Distances(tr.cfg.Plane.To3D(h.pos), h.dist)
	}
	return ms, nil
}

// Push consumes one sample, advancing every active hypothesis and
// re-electing the leader. ok is false when the sample was skipped for
// reply loss (no hypothesis could advance).
func (ms *MultiStream) Push(sample Sample) (step Step, ok bool) {
	advanced := false
	ms.bufs.trial = ms.sc.DistBuf(ms.tr.kernel.Antennas())
	ms.tr.observe(&sample.Phase, ms.obs)
	var active int
	ms.fresh, active = update(ms.track, ms.obs, ms.fresh)
	for hi := range ms.hyps {
		h := &ms.hyps[hi]
		if h.retired {
			continue
		}
		ms.tr.lockFresh(h.lobes, ms.fresh, ms.track, h.pos)
		if active < ms.tr.cfg.MinPairs {
			continue // reply loss: hold position until pairs return
		}
		var v float64
		var evals int
		h.pos, v, evals = ms.tr.step(ms.track, h.lobes, h.pos, h.dist, &ms.bufs)
		h.evals += evals
		h.total += v
		h.count++
		h.lastVote = v
		if ms.cfg.Record {
			h.points = append(h.points, traj.Point{T: sample.T, Pos: h.pos})
			h.votes = append(h.votes, v)
		}
		advanced = true
	}
	if !advanced {
		return Step{}, false
	}
	switched := ms.elect()
	ms.retire()
	lead := &ms.hyps[ms.leader]
	return Step{
		Point:    traj.Point{T: sample.T, Pos: lead.pos},
		Vote:     lead.lastVote,
		MeanVote: lead.mean(),
		Leader:   ms.leader,
		Switched: switched,
		Active:   ms.Active(),
	}, true
}

// mean is the hypothesis's running mean vote (0 before any sample) — the
// quantity §5.2's selection rule compares.
func (h *hypothesis) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.total / float64(h.count)
}

// elect re-picks the leader among active hypotheses by mean vote:
// strictly-greater wins, ties keep the earlier candidate. A sitting
// leader holds office until a challenger beats it by SwitchMargin — the
// hysteresis that keeps near-equivalent hypotheses (nearby lobes, whose
// means differ only by noise) from flapping the live cursor, while a
// genuinely collapsing leader (Fig. 10f) is still deposed decisively.
// The same sticky rule runs in batch, so both schedulers crown the same
// winner. Returns whether leadership changed.
func (ms *MultiStream) elect() bool {
	best := -1
	for hi := range ms.hyps {
		h := &ms.hyps[hi]
		if h.retired || h.count == 0 {
			continue
		}
		if best == -1 || h.mean() > ms.hyps[best].mean() {
			best = hi
		}
	}
	if best == -1 {
		return false
	}
	// The hypothesis set starts with the positioner's ranking: candidate
	// 0 (its best) sits as leader from the first sample, and the
	// hysteresis applies to the very first election too — one-sample
	// trace means are indistinct, so the positioner's ordering breaks
	// the tie until trace evidence is decisive.
	if best != ms.leader {
		lead := &ms.hyps[ms.leader]
		if !lead.retired && lead.count > 0 && ms.hyps[best].mean()-lead.mean() <= ms.cfg.SwitchMargin {
			best = ms.leader // challenger not decisively better: hold
		}
	}
	switched := ms.emitted && best != ms.leader
	if switched {
		ms.switches++
	}
	ms.leader = best
	ms.emitted = true
	return switched
}

// mergeAfter is how many consecutive leader-coincident samples retire a
// duplicate hypothesis. Candidates seeded near the true position lock
// the same lobes and converge onto the leader's trajectory within a few
// sweeps; once pinned to it they carry no disambiguation information
// and only multiply per-sweep search cost.
const mergeAfter = 4

// retire drops hypotheses that can no longer inform the selection. Two
// cases: a vote record collapsed relative to the leader — RetireAfter
// usable samples in, a mean vote more than RetireMargin below the
// leader's means the locked lobes stopped intersecting coherently
// (Fig. 10f) and the candidate cannot win — and a duplicate whose
// trajectory has converged onto the leader's (within the tracer's fine
// search step for mergeAfter consecutive samples). The leader itself is
// never retired, so at least one hypothesis survives.
func (ms *MultiStream) retire() {
	if ms.cfg.RetireMargin < 0 {
		return
	}
	lead := &ms.hyps[ms.leader]
	leadMean := lead.mean()
	for hi := range ms.hyps {
		h := &ms.hyps[hi]
		if hi == ms.leader || h.retired {
			continue
		}
		if h.count >= ms.cfg.RetireAfter && leadMean-h.mean() > ms.cfg.RetireMargin {
			h.retired = true
			ms.retirements++
			continue
		}
		if h.pos.Dist(lead.pos) <= ms.tr.cfg.FineStep {
			h.nearLeader++
		} else {
			h.nearLeader = 0
		}
		if h.nearLeader >= mergeAfter {
			h.retired = true
			ms.retirements++
		}
	}
	// Decision window over: cap the active set to the leader plus the
	// best challengers. Shape-equivalent nearby-lobe candidates keep
	// healthy vote records forever; carrying more than MaxHypotheses of
	// them multiplies per-sweep search cost without adding information.
	if ms.cfg.MaxHypotheses > 0 && lead.count >= ms.cfg.RetireAfter {
		ms.capActive()
	}
}

// capActive retires the worst active hypotheses beyond MaxHypotheses,
// ranked by mean vote (ties keep the earlier candidate). The leader is
// always kept.
func (ms *MultiStream) capActive() {
	active := 0
	for hi := range ms.hyps {
		if !ms.hyps[hi].retired {
			active++
		}
	}
	for active > ms.cfg.MaxHypotheses {
		worst := -1
		for hi := range ms.hyps {
			h := &ms.hyps[hi]
			if hi == ms.leader || h.retired {
				continue
			}
			if worst == -1 || h.mean() <= ms.hyps[worst].mean() {
				worst = hi // ties retire the later candidate
			}
		}
		if worst == -1 {
			return
		}
		ms.hyps[worst].retired = true
		ms.retirements++
		active--
	}
}

// Leader returns the current leading hypothesis index.
func (ms *MultiStream) Leader() int { return ms.leader }

// LeaderPosition returns the leader's current position estimate.
func (ms *MultiStream) LeaderPosition() geom.Vec2 { return ms.hyps[ms.leader].pos }

// LeaderMeanVote returns the leader's running mean vote (0 before any
// sample) — the stream's confidence signal.
func (ms *MultiStream) LeaderMeanVote() float64 { return ms.hyps[ms.leader].mean() }

// Active returns how many hypotheses are still advancing.
func (ms *MultiStream) Active() int {
	n := 0
	for hi := range ms.hyps {
		if !ms.hyps[hi].retired {
			n++
		}
	}
	return n
}

// Switches returns how many times leadership has changed.
func (ms *MultiStream) Switches() int { return ms.switches }

// Retirements returns how many hypotheses have been retired.
func (ms *MultiStream) Retirements() int { return ms.retirements }

// SearchEvals returns the cumulative step evaluation count across all
// hypotheses — the multi-hypothesis counterpart of
// Result.SearchEvals.
func (ms *MultiStream) SearchEvals() int {
	n := 0
	for hi := range ms.hyps {
		n += ms.hyps[hi].evals
	}
	return n
}

// Results materializes every hypothesis's batch Result (Record mode
// only), aligned with the returned candidates; best indexes the leader.
// Hypotheses that never traced a usable sample are dropped, matching the
// batch pipeline's handling of failed candidate traces; when none traced
// anything the stream-wide reply-loss error is returned. It allocates
// three times whatever the hypothesis count: the results and the
// candidates, sized to the hypotheses, and one slab for every result's
// locked lobes. The results share the hypotheses' recorded trajectories
// and votes.
func (ms *MultiStream) Results() (all []Result, cands []vote.Candidate, best int, err error) {
	if !ms.cfg.Record {
		return nil, nil, -1, errors.New("tracing: MultiStream results require MultiConfig.Record")
	}
	nPair := len(ms.tr.pairs)
	all, cands = make([]Result, 0, len(ms.hyps)), make([]vote.Candidate, 0, len(ms.hyps))
	lobes := make([]int, len(ms.hyps)*nPair)
	for hi := range ms.hyps {
		h := &ms.hyps[hi]
		if h.count == 0 {
			continue
		}
		// The leader always has traced a sample: every active
		// hypothesis advances together, and the leader is never retired.
		if hi == ms.leader {
			best = len(all)
		}
		locked := lobes[hi*nPair : (hi+1)*nPair : (hi+1)*nPair]
		copy(locked, h.lobes)
		all = append(all, Result{
			Trajectory:  traj.Trajectory{Points: h.points},
			Votes:       h.votes,
			TotalVote:   h.total,
			LockedLobes: locked,
			SearchEvals: h.evals,
			Retired:     h.retired,
		})
		cands = append(cands, h.initial)
	}
	if len(all) == 0 {
		return nil, nil, -1, errors.New("tracing: no usable samples (too much reply loss)")
	}
	return all, cands, best, nil
}
