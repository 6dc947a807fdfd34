// Quickstart: simulate a user writing one word in the air and reconstruct
// the trajectory with the public rfidraw API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"maps"

	"rfidraw"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/plot"
	"rfidraw/internal/sim"
	"rfidraw/internal/traj"
)

func main() {
	// 1. Build a simulated testbed: a LOS room with the standard
	//    two-reader, eight-antenna deployment, user 2 m from the wall.
	scenario, err := sim.New(sim.Config{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A user writes "clear" in the air with an RFID on their finger.
	run, err := scenario.RunWord("clear", geom.Vec2{X: 0.55, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user wrote %q: %d letters, %.2f m of stroke, %v of writing\n",
		run.Word.Text, len(run.Word.Letters), run.Word.Traj.ArcLength(), run.Word.Traj.Duration().Round(1e7))

	// 3. Feed the readers' phase samples to RF-IDraw.
	sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: scenario.Plane.Y})
	if err != nil {
		log.Fatal(err)
	}
	samples := make([]rfidraw.Sample, len(run.SamplesRF))
	for i, s := range run.SamplesRF {
		samples[i] = rfidraw.Sample{Time: s.T, Phases: maps.Collect(s.Phase.All())}
	}
	res, err := sys.Trace(samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed %d trajectory points from %d candidates (chose #%d)\n",
		len(res.Trajectory), len(res.Traces), res.Chosen)
	fmt.Printf("estimated initial position: (%.2f, %.2f) m\n", res.InitialPosition.X, res.InitialPosition.Z)

	// 4. Compare against the VICON ground truth: remove the initial
	//    offset (the paper's §8.1 metric) and report the shape error.
	rec := make([]geom.Vec2, len(res.Trajectory))
	pts := make([]traj.Point, len(res.Trajectory))
	for i, p := range res.Trajectory {
		rec[i] = geom.Vec2{X: p.X, Z: p.Z}
		pts[i] = traj.Point{T: p.Time, Pos: rec[i]}
	}
	med, err := traj.MedianError(run.Truth, traj.Trajectory{Points: pts}, traj.AlignInitial, 128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("median shape error: %.1f cm (paper: 3.7 cm LOS median)\n", med*100)

	// 5. Show the reconstruction.
	art, err := plot.Trajectories(72, 18, run.Truth.Positions(), rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntruth (*) vs reconstruction (o):")
	fmt.Println(art)
}
