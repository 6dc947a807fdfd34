package tracing

import (
	"testing"

	"rfidraw/internal/geom"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

func TestNewStreamValidation(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.05, 10)
	samples := synthSamples(d, path, 0, nil)
	// Starved first sample: cannot lock enough pairs.
	if _, err := tr.NewStream(path[0], Sample{T: 0, Phase: vote.ObservationsOf(map[int]float64{1: 0.2})}); err == nil {
		t.Fatal("starved stream start should error")
	}
	s, err := tr.NewStream(path[0], samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.Position() != tr.Config().Region.Clip(path[0]) {
		t.Fatalf("initial position = %v", s.Position())
	}
	if s.MeanVote() != 0 {
		t.Fatal("mean vote before any push should be 0")
	}
}

func TestStreamMatchesBatchTrace(t *testing.T) {
	// Pushing every sample through a stream must match the batch Trace
	// from the same start.
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 50)
	samples := synthSamples(d, path, 0, nil)
	batch, err := tr.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := tr.NewStream(path[0], samples[0])
	if err != nil {
		t.Fatal(err)
	}
	var pts []traj.Point
	for _, s := range samples {
		if p, _, ok := stream.Push(s); ok {
			pts = append(pts, p)
		}
	}
	if len(pts) != batch.Trajectory.Len() {
		t.Fatalf("stream traced %d points, batch %d", len(pts), batch.Trajectory.Len())
	}
	for i := range pts {
		if pts[i].Pos.Dist(batch.Trajectory.Points[i].Pos) > 1e-9 {
			t.Fatalf("point %d diverged: %v vs %v", i, pts[i].Pos, batch.Trajectory.Points[i].Pos)
		}
	}
	if stream.MeanVote() > 0 {
		t.Fatal("mean vote must be ≤ 0")
	}
}

func TestStreamSkipsStarvedSamples(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.05, 20)
	samples := synthSamples(d, path, 0, nil)
	stream, err := tr.NewStream(path[0], samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := stream.Push(Sample{T: samples[1].T}); ok {
		t.Fatal("starved sample should be skipped")
	}
	// The stream continues cleanly afterwards.
	if _, _, ok := stream.Push(samples[1]); !ok {
		t.Fatal("stream should resume after starvation")
	}
}
