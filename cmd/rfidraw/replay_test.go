package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rfidraw"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/realtime"
	"rfidraw/internal/sim"
)

// TestReplayMatchesDaemonRetrace: the offline re-trace resolves a
// recorded session's geometry and search from the log's meta, as the
// daemon's retrace does, so on a non-default geometry both produce the
// same points.
func TestReplayMatchesDaemonRetrace(t *testing.T) {
	spec, err := deploy.GeometryByName("rotated")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := spec.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sim.New(sim.Config{Seed: 5, Deployment: dep, Region: spec.Region()})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sc.RunWords([]string{"hi"}, []geom.Vec2{{X: 0.5, Z: 1.0}})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// The first server built over a System fixes its session registry,
	// data dir included; it need not be started.
	if _, err := sys.NewServer(rfidraw.ServeConfig{DataDir: dir}); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.OpenSession(rfidraw.SessionSpec{
		Sweep:    run.SweepInterval * time.Duration(len(run.Tags)),
		Geometry: "rotated",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		err := sess.Offer(rfidraw.ReaderReport{
			Time: rep.Time, ReaderID: rep.ReaderID, Antenna: rep.AntennaID,
			EPC: rep.EPC.String(), Phase: rep.PhaseRad, Power: rep.PowerDB,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _, err := sess.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()

	out := filepath.Join(t.TempDir(), "replay.json")
	if err := runReplay([]string{"-data-dir", dir, "-session", sess.ID(), "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Tags []struct {
			Tag    string `json:"tag"`
			Err    string `json:"err"`
			Points []struct {
				T time.Duration `json:"t_ns"`
				X float64       `json:"x"`
				Z float64       `json:"z"`
			} `json:"points"`
		} `json:"tags"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Tags) != len(want) {
		t.Fatalf("replay traced %d tags, retrace %d", len(got.Tags), len(want))
	}
	for i, w := range want {
		g := got.Tags[i]
		if w.Err != nil || g.Err != "" {
			t.Fatalf("tag %s: retrace err %v, replay err %q", w.Tag, w.Err, g.Err)
		}
		if g.Tag != w.Tag {
			t.Fatalf("tag order: replay %s, retrace %s", g.Tag, w.Tag)
		}
		if len(g.Points) != len(w.Result.Trajectory) {
			t.Fatalf("tag %s: replay %d points, retrace %d", w.Tag, len(g.Points), len(w.Result.Trajectory))
		}
		for j, p := range w.Result.Trajectory {
			if q := g.Points[j]; q.T != p.Time || q.X != p.X || q.Z != p.Z {
				t.Fatalf("tag %s point %d: replay (%v, %.3f, %.3f), retrace (%v, %.3f, %.3f)",
					w.Tag, j, q.T, q.X, q.Z, p.Time, p.X, p.Z)
			}
		}
	}
}
