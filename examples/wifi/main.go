// WiFi-style tracking: §9.3 notes the grating-lobe idea transfers to
// other RF systems — e.g. WiFi access points tracing nearby cellphones.
// This example builds the same multi-resolution deployment for a *one-way*
// link (the device transmits; phases accumulate once per metre instead of
// twice) and traces an actively transmitting device drawing a figure-eight.
//
// One-way operation changes the geometry: tightly spaced pairs are
// unambiguous up to λ/2 (not λ/4), and each wide pair has half the lobes.
//
//	go run ./examples/wifi
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"rfidraw/internal/channel"
	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
	"rfidraw/internal/plot"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

func main() {
	// 2.4 GHz-ish carrier, one-way link (the device transmits).
	carrier := phys.NewCarrier(2.412e9)
	dep, err := deploy.NewRFIDraw(carrier, phys.OneWay)
	if err != nil {
		log.Fatal(err)
	}
	lambda := carrier.WavelengthM
	fmt.Printf("carrier 2.412 GHz, λ = %.1f cm; wide pairs %.2f m apart with %d lobes each\n",
		lambda*100, dep.WidePairs[0].Separation(), dep.WidePairs[0].LobeCount())

	// The 8λ square is only ~1 m at 2.4 GHz: an access-point-sized rig.
	region := geom.Rect{
		Min: geom.Vec2{X: -0.3, Z: -0.3},
		Max: geom.Vec2{X: 8*lambda + 0.3, Z: 8 * lambda * 1.2},
	}
	plane := geom.Plane{Y: 1.5}
	env := &channel.Environment{
		Carrier:          carrier,
		Link:             phys.OneWay,
		DirectGain:       1,
		PhaseNoiseStdDev: 0.15,
		Scatterers: []channel.Scatterer{
			{Pos: geom.Vec3{X: 0.8, Y: 1.0, Z: 0.9}, Reflectivity: 0.12},
			{Pos: geom.Vec3{X: -0.4, Y: 2.0, Z: 0.3}, Reflectivity: 0.10},
		},
	}
	if err := env.Validate(); err != nil {
		log.Fatal(err)
	}

	// The device draws a figure-eight, 30 cm wide.
	rng := rand.New(rand.NewSource(3))
	n := 120
	pos := make([]geom.Vec2, n)
	c := region.Center()
	for i := range pos {
		th := 2 * math.Pi * float64(i) / float64(n-1)
		pos[i] = geom.Vec2{X: c.X + 0.15*math.Sin(2*th), Z: c.Z + 0.12*math.Sin(th)}
	}
	truth := traj.FromPositions(pos, 25*time.Millisecond)

	samples := make([]tracing.Sample, truth.Len())
	for i, p := range truth.Points {
		src := plane.To3D(p.Pos)
		var obs vote.Observations
		for _, a := range dep.Antennas {
			obs.Set(a.ID, env.Measure(a.Pos, src, 0, rng).Phase)
		}
		samples[i] = tracing.Sample{T: p.T, Phase: obs}
	}

	sys, err := core.NewSystem(dep, core.Config{Plane: plane, Region: region})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Trace(samples)
	if err != nil {
		log.Fatal(err)
	}
	med, err := traj.MedianError(truth, res.Best.Trajectory, traj.AlignInitial, 120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced a one-way transmitter's figure-eight: median shape error %.1f cm\n\n", med*100)

	art, err := plot.Trajectories(64, 20, truth.Positions(), res.Best.Trajectory.Positions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("truth (*) vs reconstruction (o):")
	fmt.Println(art)
}
