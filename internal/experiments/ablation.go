package experiments

import (
	"fmt"
	"strings"

	"rfidraw/internal/baseline"
	"rfidraw/internal/core"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/sim"
	"rfidraw/internal/stats"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// AblationReport quantifies the paper's design choices (§5) and this
// reproduction's baseline solver, each isolated on the same simulated
// workload: the coarse filter, lobe locking, trajectory-vote candidate
// selection, and the near-field baseline strengthening.
type AblationReport struct {
	// CoarseFilterErr / WideOnlyErr: median one-shot localization error
	// (m) with and without the stage-1 coarse filter.
	CoarseFilterErr, WideOnlyErr float64
	// LockedErr / PerSampleErr: median trajectory shape error (m) with
	// lobe locking vs re-localizing every sample independently.
	LockedErr, PerSampleErr float64
	// VoteSelectErr / FirstCandErr: median initial-position error (m)
	// when candidates are ranked by trajectory vote vs taking the
	// single best stage-vote candidate.
	VoteSelectErr, FirstCandErr float64
	// FarFieldBLErr / NearFieldBLErr: the baseline's median *absolute*
	// position error (m) as published (far-field rays) vs with the
	// strengthened near-field solver. Absolute error is where the
	// far-field approximation costs; mean-aligned shape error hides it.
	FarFieldBLErr, NearFieldBLErr float64
	// Trials is the number of words behind each statistic.
	Trials int
}

// RunAblations executes all ablations over `trials` simulated words.
func RunAblations(trials int, seed int64) (*AblationReport, error) {
	if trials <= 0 {
		trials = 8
	}
	rep := &AblationReport{Trials: trials}
	var (
		coarseErrs, wideErrs   []float64
		lockedErrs, sampleErrs []float64
		voteSelErrs, firstErrs []float64
		farBLErrs, nearBLErrs  []float64
	)
	words := []string{"on", "go", "play", "clear", "house", "word", "train", "light", "sound", "paper"}
	for trial := 0; trial < trials; trial++ {
		text := words[trial%len(words)]
		sc, err := sim.New(sim.Config{Seed: seed + int64(trial)*131, Distance: []float64{2, 3, 5}[trial%3]})
		if err != nil {
			return nil, err
		}
		wr, err := sc.RunWord(text, geom.Vec2{X: 0.7, Z: 1.0}, handwriting.DefaultStyle())
		if err != nil {
			return nil, err
		}
		truthStart := wr.Truth.Start()
		steady := wr.SamplesRF[len(wr.SamplesRF)/2]

		// 1. Coarse filter ablation: one-shot localization. Dense search:
		// the wide-only arm's stage-1 surface is a field of aliased
		// ridges — the exact ambiguity this ablation quantifies — which
		// violates the hierarchical search's peak-concentration
		// assumption; the ablation must measure the algorithm, not the
		// search heuristic.
		vcfg := vote.Config{
			Plane: sc.Plane, Region: sc.Region, CandidateCount: 4,
			Search: vote.SearchConfig{Mode: vote.SearchDense},
		}
		full, err := vote.NewPositioner(sc.RFIDraw.Stage1Pairs(), sc.RFIDraw.WidePairs, vcfg)
		if err != nil {
			return nil, err
		}
		wideOnly, err := vote.NewPositioner(sc.RFIDraw.WidePairs, sc.RFIDraw.WidePairs, vcfg)
		if err != nil {
			return nil, err
		}
		truthMid, err := wr.Truth.At(steady.T)
		if err != nil {
			return nil, err
		}
		if cf, err := full.Candidates(steady.Phase); err == nil && len(cf) > 0 {
			coarseErrs = append(coarseErrs, cf[0].Pos.Dist(truthMid))
		}
		if cw, err := wideOnly.Candidates(steady.Phase); err == nil && len(cw) > 0 {
			wideErrs = append(wideErrs, cw[0].Pos.Dist(truthMid))
		}

		// 2. Lobe locking ablation + 3. vote selection ablation.
		sys, err := core.NewSystem(sc.RFIDraw, core.Config{Plane: sc.Plane, Region: sc.Region})
		if err != nil {
			return nil, err
		}
		res, err := sys.Trace(wr.SamplesRF)
		if err == nil {
			if med, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 64); err == nil {
				lockedErrs = append(lockedErrs, med)
			}
			voteSelErrs = append(voteSelErrs, res.InitialPosition().Dist(truthStart))
			// "First candidate" = highest stage-vote score, i.e. what the
			// system would pick without trajectory-vote refinement.
			firstErrs = append(firstErrs, res.Candidates[0].Pos.Dist(truthStart))
		}
		var perSample []traj.Point
		for _, s := range wr.SamplesRF {
			if cands, err := sys.Localize(s.Phase); err == nil && len(cands) > 0 {
				perSample = append(perSample, traj.Point{T: s.T, Pos: cands[0].Pos})
			}
		}
		if len(perSample) > 1 {
			if med, err := traj.MedianError(wr.Truth, traj.Trajectory{Points: perSample}, traj.AlignInitial, 64); err == nil {
				sampleErrs = append(sampleErrs, med)
			}
		}

		// 4. Baseline strengthening ablation.
		for _, nearField := range []bool{false, true} {
			bl, err := baseline.New(sc.Baseline, baseline.Config{Plane: sc.Plane, Region: sc.Region, NearField: nearField})
			if err != nil {
				return nil, err
			}
			tr, err := bl.Trace(wr.SamplesBL)
			if err != nil {
				continue
			}
			// Absolute error: unaligned point-by-point distance.
			med, err := traj.MedianError(wr.Truth, tr, traj.AlignNone, 64)
			if err != nil {
				continue
			}
			if nearField {
				nearBLErrs = append(nearBLErrs, med)
			} else {
				farBLErrs = append(farBLErrs, med)
			}
		}
	}
	rep.CoarseFilterErr = stats.Median(coarseErrs)
	rep.WideOnlyErr = stats.Median(wideErrs)
	rep.LockedErr = stats.Median(lockedErrs)
	rep.PerSampleErr = stats.Median(sampleErrs)
	rep.VoteSelectErr = stats.Median(voteSelErrs)
	rep.FirstCandErr = stats.Median(firstErrs)
	rep.FarFieldBLErr = stats.Median(farBLErrs)
	rep.NearFieldBLErr = stats.Median(nearBLErrs)
	return rep, nil
}

// Render formats the report.
func (r *AblationReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (%d words, medians)\n", r.Trials)
	rows := [][]string{
		{"coarse filter (§3.5)", cm(r.CoarseFilterErr), cm(r.WideOnlyErr), "one-shot localization error, with filter vs wide pairs only"},
		{"lobe locking (§5.2)", cm(r.LockedErr), cm(r.PerSampleErr), "trajectory shape error, locked tracing vs per-sample re-voting"},
		{"vote selection (§5.2)", cm(r.VoteSelectErr), cm(r.FirstCandErr), "initial-position error, trajectory-vote pick vs best stage vote"},
		{"baseline solver", cm(r.FarFieldBLErr), cm(r.NearFieldBLErr), "baseline absolute error, far-field (published) vs near-field"},
	}
	b.WriteString(stats.Table([]string{"design choice", "with", "without/variant", "metric"}, rows))
	return b.String()
}

func cm(m float64) string { return fmt.Sprintf("%.1f cm", m*100) }
