package vote

import (
	"math"
	"sync"
	"testing"

	"rfidraw/internal/antenna"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
)

func testPairs(t *testing.T) []antenna.Pair {
	t.Helper()
	carrier := phys.DefaultCarrier()
	lambda := carrier.WavelengthM
	mk := func(id1, id2 int, p1, p2 geom.Vec3) antenna.Pair {
		p, err := antenna.NewPair(
			antenna.Antenna{ID: id1, Pos: p1},
			antenna.Antenna{ID: id2, Pos: p2},
			carrier, phys.Backscatter,
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []antenna.Pair{
		mk(1, 2, geom.Vec3{}, geom.Vec3{X: lambda / 4}),
		mk(3, 4, geom.Vec3{X: 0.5}, geom.Vec3{X: 0.5 + 8*lambda}),
		mk(5, 6, geom.Vec3{Z: 0.3}, geom.Vec3{X: 2 * lambda, Z: 0.3}),
	}
}

// TestSteeringTableMatchesDirect checks the precomputed fast path is
// bit-identical to evaluating antenna.Pair.VoteFree point by point: the
// concurrent engine's determinism guarantee rests on this.
func TestSteeringTableMatchesDirect(t *testing.T) {
	pairs := testPairs(t)
	plane := geom.Plane{Y: 2}
	region := geom.Rect{Min: geom.Vec2{X: -0.2, Z: 0}, Max: geom.Vec2{X: 1.4, Z: 1.2}}
	grid, err := NewGrid(region, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	table := NewSteeringTable(pairs, grid, plane)
	if table.Pairs() != len(pairs) {
		t.Fatalf("table has %d pair rows, want %d", table.Pairs(), len(pairs))
	}

	measured := []float64{0.13, -0.37, 0.02}
	po := make([]pairObs, len(pairs))
	for pi := range pairs {
		po[pi] = pairObs{turns: measured[pi], idx: pi}
	}
	for i := 0; i < grid.Len(); i++ {
		var want float64
		p3 := plane.To3D(grid.At(i))
		for pi, p := range pairs {
			want += p.VoteFree(p3, measured[pi])
		}
		if got := table.vote(i, po, math.Inf(-1)); got != want {
			t.Fatalf("point %d: table vote %v != direct vote %v (must be bit-identical)", i, got, want)
		}
	}
}

// TestPositionerConcurrentCandidates hammers one shared Positioner from
// many goroutines (run under -race) and checks every goroutine gets the
// same answer — the engine shares one Positioner across its shards.
func TestPositionerConcurrentCandidates(t *testing.T) {
	pairs := testPairs(t)
	plane := geom.Plane{Y: 2}
	cfg := Config{
		Plane:  plane,
		Region: geom.Rect{Min: geom.Vec2{X: -0.2, Z: 0}, Max: geom.Vec2{X: 1.4, Z: 1.2}},
	}
	p, err := NewPositioner([]antenna.Pair{pairs[0], pairs[2]}, pairs[1:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := geom.Vec3{X: 0.7, Y: 2, Z: 0.6}
	obs := Observations{}
	// Synthesise per-antenna phases consistent with src: phase at antenna
	// a is −2π·F·d(a)/λ plus a common offset, so pair differences match.
	for _, pr := range pairs {
		for _, a := range []antenna.Antenna{pr.I, pr.J} {
			d := src.Dist(a.Pos)
			obs[a.ID] = phys.Wrap(-phys.TwoPi * pr.Link.TravelFactor() * d / pr.Carrier.WavelengthM)
		}
	}
	want, err := p.Candidates(obs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := p.Candidates(obs)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("got %d candidates, want %d", len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("candidate %d: %+v != %+v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	best := want[0]
	if math.Abs(best.Pos.X-src.X) > 0.05 || math.Abs(best.Pos.Z-src.Z) > 0.05 {
		t.Fatalf("best candidate %v far from source (%v, %v)", best.Pos, src.X, src.Z)
	}
}
