// Gestures: beyond handwriting, a virtual touch screen needs swipe /
// tap / circle commands (§9.3 discusses gesture interfaces; RF-IDraw
// supports them without any training). A simulated user performs a command
// sequence with the tag; RF-IDraw traces it, the gesture classifier splits
// and names each stroke, and the trace is also emitted as touch events —
// the full pipeline from RF phases to device input.
//
//	go run ./examples/gestures
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/geom"
	"rfidraw/internal/gesture"
	"rfidraw/internal/sim"
	"rfidraw/internal/touch"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// buildPerformance scripts the user's motion: swipe right, pause, circle,
// pause, swipe down.
func buildPerformance() traj.Trajectory {
	var pos []geom.Vec2
	appendLine := func(from, to geom.Vec2, n int) {
		for i := 0; i < n; i++ {
			pos = append(pos, from.Lerp(to, float64(i)/float64(n-1)))
		}
	}
	appendPause := func(at geom.Vec2, n int) {
		for i := 0; i < n; i++ {
			pos = append(pos, at)
		}
	}
	appendLine(geom.Vec2{X: 0.8, Z: 1.2}, geom.Vec2{X: 1.4, Z: 1.2}, 24)
	appendPause(geom.Vec2{X: 1.4, Z: 1.2}, 8)
	for i := 0; i <= 40; i++ {
		th := 2 * math.Pi * float64(i) / 40
		pos = append(pos, geom.Vec2{X: 1.2 + 0.15*math.Cos(th), Z: 1.2 + 0.15*math.Sin(th)})
	}
	appendPause(geom.Vec2{X: 1.35, Z: 1.2}, 8)
	appendLine(geom.Vec2{X: 1.35, Z: 1.2}, geom.Vec2{X: 1.35, Z: 0.8}, 24)
	return traj.FromPositions(pos, 25*time.Millisecond)
}

func main() {
	scenario, err := sim.New(sim.Config{Seed: 44})
	if err != nil {
		log.Fatal(err)
	}
	truth := buildPerformance()

	// Observe the performance through the simulated readers.
	samples := make([]tracing.Sample, truth.Len())
	for i, p := range truth.Points {
		src := scenario.Plane.To3D(p.Pos)
		var obs vote.Observations
		for _, a := range scenario.RFIDraw.Antennas {
			m := scenario.Env.Measure(a.Pos, src, 0, scenario.RNG())
			obs.Set(a.ID, m.Phase)
		}
		samples[i] = tracing.Sample{T: p.T, Phase: obs}
	}

	sys, err := core.NewSystem(scenario.RFIDraw, core.Config{Plane: scenario.Plane, Region: scenario.Region})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Trace(samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced %d samples of the gesture performance\n\n", res.Best.Trajectory.Len())

	// Split the trace at pauses and classify each stroke.
	strokes := gesture.Segment(res.Best.Trajectory.Smooth(2), 0.05, 3)
	fmt.Printf("detected %d strokes:\n", len(strokes))
	for i, s := range strokes {
		r, err := gesture.Classify(s, gesture.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  stroke %d: %-12s (net %.2f m, path %.2f m, winding %+.1f rad)\n",
			i+1, r.Command, r.Net.Norm(), r.PathLen, r.Winding)
	}

	// Emit the whole performance as touch events (what MonkeyRunner
	// replays onto the phone in the paper's prototype).
	screen := touch.DefaultScreen(geom.Rect{Min: geom.Vec2{X: 0.5, Z: 0.6}, Max: geom.Vec2{X: 1.7, Z: 1.6}})
	events, err := touch.Events(res.Best.Trajectory, screen)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := touch.WriteJSONL(&buf, events); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nemitted %d touch events (%d bytes of JSONL); first three:\n", len(events), buf.Len())
	for i, e := range events {
		if i == 3 {
			break
		}
		fmt.Printf("  %+v\n", e)
	}
}
