// Multiuser: four users write simultaneously with different tags. EPC
// identities keep their report streams apart (§2: "since RF sources have
// unique IDs ... it is easy to scale to a larger number of users"), and
// rfidraw.System.TraceMany traces every tag concurrently, all goroutines
// sharing the same read-only positioner and its precomputed steering
// table.
//
//	go run ./examples/multiuser
//
// With -daemon the four writers' raw reader streams go through a running
// rfidrawd session instead of the embedded engine: the daemon
// demultiplexes the tags, traces them concurrently and streams every
// writer's points and recognized glyphs back.
//
//	rfidrawd &
//	go run ./examples/multiuser -daemon http://127.0.0.1:8090
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"sync"
	"time"

	"rfidraw"
	"rfidraw/internal/geom"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/server"
	"rfidraw/internal/sim"
	"rfidraw/internal/traj"
)

func main() {
	daemon := flag.String("daemon", "", "rfidrawd HTTP API base URL; empty traces in-process")
	flag.Parse()
	sc, err := sim.New(sim.Config{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Four tags, four users, four words written at the same time in
	// different parts of the writing plane. Gen-2 singulation splits the
	// readers' airtime, so each tag's read rate divides by four.
	words := []string{"hi", "go", "on", "up"}
	starts := []geom.Vec2{{X: 0.4, Z: 1.3}, {X: 1.7, Z: 0.7}, {X: 0.9, Z: 1.7}, {X: 1.9, Z: 1.5}}
	run, err := sc.RunWords(words, starts)
	if err != nil {
		log.Fatal(err)
	}

	if *daemon != "" {
		if err := throughDaemon(*daemon, run, words); err != nil {
			log.Fatal(err)
		}
		return
	}

	const shards = 4
	sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: sc.Plane.Y, Shards: shards})
	if err != nil {
		log.Fatal(err)
	}
	streams := map[string][]rfidraw.Sample{}
	for i, tag := range run.Tags {
		samples := make([]rfidraw.Sample, len(run.SamplesRF[i]))
		for j, s := range run.SamplesRF[i] {
			samples[j] = rfidraw.Sample{Time: s.T, Phases: maps.Collect(s.Phase.All())}
		}
		streams[tag.EPC.String()] = samples
	}
	results, err := sys.TraceMany(streams)
	if err != nil {
		log.Fatal(err)
	}
	for i, tag := range run.Tags {
		res := results[tag.EPC.String()]
		points := make([]traj.Point, len(res.Trajectory))
		for j, p := range res.Trajectory {
			points[j] = traj.Point{T: p.Time, Pos: geom.Vec2{X: p.X, Z: p.Z}}
		}
		med, err := traj.MedianError(run.Truths[i], traj.Trajectory{Points: points}, traj.AlignInitial, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tag %s: user %d wrote %-3q → %d points traced, shape error %.1f cm\n",
			tag.EPC, i+1, words[i], len(points), med*100)
	}
	fmt.Printf("\n%d users traced concurrently on %d goroutines; EPC identity separates their streams\n",
		len(run.Tags), shards)
}

// throughDaemon replays the writers' raw per-reader report streams into
// an rfidrawd session and tallies the live output per tag.
func throughDaemon(daemon string, run *sim.MultiWordRun, words []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := &server.Client{BaseURL: daemon}
	id, err := cl.CreateSession(ctx, server.SessionSpec{})
	if err != nil {
		return err
	}
	defer cl.DeleteSession(context.Background(), id)
	fmt.Printf("daemon session %s on %s (ingest %s)\n", id, daemon, cl.Ingest)

	events, errs, err := cl.Subscribe(ctx, id)
	if err != nil {
		return err
	}
	type tally struct {
		points int
		glyphs []string
	}
	tallies := map[string]*tally{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			tl := tallies[ev.Tag]
			if tl == nil {
				tl = &tally{}
				tallies[ev.Tag] = tl
			}
			switch ev.Type {
			case "point":
				tl.points++
			case "glyph":
				tl.glyphs = append(tl.glyphs, ev.Glyph)
			}
		}
	}()

	// Gen-2 singulation splits airtime: the per-tag cadence is tag-count
	// × the raw sweep interval, which is what the Hello announces.
	perTag := run.SweepInterval * time.Duration(len(run.Tags))
	start := time.Now()
	var wg sync.WaitGroup
	for readerID := range run.ReportsRF {
		wg.Add(1)
		go func(readerID int) {
			defer wg.Done()
			rs, err := cl.DialIngest(id, readerwire.Hello{
				Proto: readerwire.ProtoVersion, ReaderID: uint8(readerID),
				AntennaCount: 4, SweepInterval: perTag,
			})
			if err != nil {
				log.Printf("reader %d: %v", readerID, err)
				return
			}
			defer rs.Close()
			if err := rs.Replay(ctx, run.ReportsRF[readerID], 4 /* 4x real time */, 0, start); err != nil {
				log.Printf("reader %d: %v", readerID, err)
			}
		}(readerID)
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond) // let the daemon's idle drain flush
	if err := cl.DeleteSession(context.Background(), id); err != nil {
		return err
	}
	<-done
	select {
	case err := <-errs:
		return err
	default:
	}
	for i, tag := range run.Tags {
		tl := tallies[tag.EPC.String()]
		if tl == nil {
			tl = &tally{}
		}
		fmt.Printf("tag %s: user %d wrote %-3q → %d live points, glyphs %v\n",
			tag.EPC, i+1, words[i], tl.points, tl.glyphs)
	}
	fmt.Printf("\n%d users tracked concurrently through the daemon; EPC identity separates their streams\n",
		len(run.Tags))
	return nil
}
