// Streaming: the networked pipeline end to end — two simulated readers
// stream phase reports over TCP (readerwire protocol) into an rfidrawd
// session's ingest gateway, and the example prints the live NDJSON
// events coming back. By default it starts rfidrawd in-process on
// ephemeral ports:
//
//	go run ./examples/streaming
//
// With -daemon it drives a running rfidrawd instead:
//
//	rfidrawd &
//	go run ./examples/streaming -daemon http://127.0.0.1:8090
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"rfidraw"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
	"rfidraw/internal/sim"
)

func main() {
	daemon := flag.String("daemon", "", "rfidrawd HTTP API base URL; empty starts one in-process")
	flag.Parse()
	scenario, err := sim.New(sim.Config{Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	run, err := scenario.RunWord("play", geom.Vec2{X: 0.6, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		log.Fatal(err)
	}

	// Split the merged samples back into two per-reader report streams.
	streams2 := make([][]rfid.Report, 2)
	for readerID := 0; readerID < 2; readerID++ {
		for _, s := range run.SamplesRF {
			for id, ph := range s.Phase.All() {
				if (id-1)/4 != readerID {
					continue
				}
				streams2[readerID] = append(streams2[readerID], rfid.Report{
					Time: s.T, ReaderID: readerID, AntennaID: id,
					EPC: scenario.Tag.EPC, PhaseRad: ph,
				})
			}
		}
	}

	if *daemon == "" {
		sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: scenario.Plane.Y})
		if err != nil {
			log.Fatal(err)
		}
		defer sys.Close()
		srv, err := sys.NewServer(rfidraw.ServeConfig{HTTPAddr: "127.0.0.1:0", IngestAddr: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		*daemon = "http://" + srv.HTTPAddr()
	}
	if err := throughDaemon(*daemon, streams2, run.Word.Text); err != nil {
		log.Fatal(err)
	}
}

// throughDaemon runs the pipeline against a live rfidrawd: session
// create, two ingest reader connections, live NDJSON consumption.
func throughDaemon(daemon string, streams [][]rfid.Report, word string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
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
	counted := make(chan int)
	go func() {
		count := 0
		for ev := range events {
			if ev.Type != "point" {
				continue
			}
			if count%10 == 0 {
				fmt.Printf("live t=%8v  (%.3f, %.3f) m\n", ev.T.Round(time.Millisecond), ev.X, ev.Z)
			}
			count++
		}
		counted <- count
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for readerID := range streams {
		wg.Add(1)
		go func(readerID int) {
			defer wg.Done()
			rs, err := cl.DialIngest(id, readerwire.Hello{
				Proto: readerwire.ProtoVersion, ReaderID: uint8(readerID),
				AntennaCount: 4, SweepInterval: 25 * time.Millisecond,
			})
			if err != nil {
				log.Printf("reader %d: %v", readerID, err)
				return
			}
			defer rs.Close()
			if err := rs.Replay(ctx, streams[readerID], 4 /* 4x real time */, 0, start); err != nil {
				log.Printf("reader %d: %v", readerID, err)
			}
		}(readerID)
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond) // let the daemon's idle drain flush
	if err := cl.DeleteSession(context.Background(), id); err != nil {
		return err
	}
	count := <-counted
	select {
	case err := <-errs:
		return err
	default:
	}
	fmt.Printf("\ntraced %d live positions of %q through the daemon\n", count, word)
	return nil
}
