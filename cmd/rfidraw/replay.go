package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/server"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// runReplay is the "rfidraw replay" subcommand: an offline re-trace of a
// session recorded by rfidrawd -data-dir, without a running daemon —
// the same record-once/re-trace-many path the daemon's retrace endpoint
// serves, pointed straight at the log.
//
// Usage:
//
//	rfidraw replay -data-dir DIR [-session ID] [-dist 2] [-dense] [-out file]
//
// Without -session it lists the store's recorded sessions. -dist must
// match the daemon's deployment (the writing-plane distance is not part
// of the log). The antenna geometry and search override come from the
// log's meta, exactly as the daemon's retrace resolves them; -dense
// overrides the search with the exhaustive reference search.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("rfidraw replay", flag.ExitOnError)
	var (
		dataDir = fs.String("data-dir", "", "rfidrawd write-ahead log directory (required)")
		session = fs.String("session", "", "session ID to re-trace (empty: list sessions)")
		dist    = fs.Float64("dist", 2, "writing plane distance in metres (must match the recording daemon)")
		dense   = fs.Bool("dense", false, "re-trace under the dense reference search instead of the recorded one")
		out     = fs.String("out", "", "write the JSON result here (default stdout)")
	)
	fs.Parse(args)
	if *dataDir == "" {
		fs.Usage()
		return fmt.Errorf("replay: -data-dir is required")
	}
	if *dist <= 0 {
		return fmt.Errorf("replay: -dist %v must be positive", *dist)
	}
	store, err := wal.Open(*dataDir, wal.Options{})
	if err != nil {
		return err
	}
	if *session == "" {
		ids, err := store.Sessions()
		if err != nil {
			return err
		}
		for _, id := range ids {
			meta, stats, err := store.Scan(id)
			if err != nil {
				fmt.Printf("%s\tunreadable: %v\n", id, err)
				continue
			}
			fmt.Printf("%s\t%d reports\t%d flushes\tsweep %v\tclean=%v\n",
				id, stats.Reports, stats.Flushes, meta.Sweep, stats.CleanClose)
		}
		return nil
	}

	meta, stats, err := store.Scan(*session)
	if err != nil {
		return err
	}
	base, err := core.NewSystem(nil, core.Config{Plane: geom.Plane{Y: *dist}, Region: deploy.DefaultRegion()})
	if err != nil {
		return err
	}
	search := server.SearchFromMeta(meta.Search)
	if *dense {
		search = &vote.SearchConfig{Mode: vote.SearchDense}
	}
	sys, err := server.SystemFor(base, meta.Geometry, search)
	if err != nil {
		return err
	}
	rp, err := engine.NewReplayer(engine.Config{
		System:        sys,
		SweepInterval: meta.Sweep,
		RecordTrace:   true,
	})
	if err != nil {
		return err
	}
	err = store.Replay(*session, 0, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecordReport:
			return rp.Offer(rec.Report)
		case wal.RecordFlush, wal.RecordClose:
			_ = rp.Flush() // a tag's failure is in its Results entry
		}
		return nil
	})
	if err != nil {
		return err
	}
	_ = rp.Flush()

	type replayPoint struct {
		T time.Duration `json:"t_ns"`
		X float64       `json:"x"`
		Z float64       `json:"z"`
	}
	type replayTag struct {
		Tag            string        `json:"tag"`
		Chosen         int           `json:"chosen"`
		LeaderSwitches int           `json:"leader_switches"`
		Retirements    int           `json:"retirements"`
		Points         []replayPoint `json:"points"`
		Err            string        `json:"err,omitempty"`
	}
	result := struct {
		Session    string      `json:"session"`
		SweepMS    float64     `json:"sweep_ms"`
		Reports    int         `json:"reports"`
		Flushes    int         `json:"flushes"`
		CleanClose bool        `json:"clean_close"`
		TornBytes  int64       `json:"torn_bytes,omitempty"`
		Dense      bool        `json:"dense,omitempty"`
		Tags       []replayTag `json:"tags"`
	}{
		Session: *session, SweepMS: float64(meta.Sweep) / float64(time.Millisecond),
		Reports: stats.Reports, Flushes: stats.Flushes,
		CleanClose: stats.CleanClose, TornBytes: stats.TornBytes, Dense: *dense,
	}
	for _, res := range rp.Results() {
		tag := replayTag{Tag: res.Tag}
		if res.Err != nil {
			tag.Err = res.Err.Error()
			result.Tags = append(result.Tags, tag)
			continue
		}
		tag.Chosen = res.Result.BestIndex
		tag.LeaderSwitches = res.Result.LeaderSwitches
		tag.Retirements = res.Result.Retirements
		for _, p := range res.Result.Best.Trajectory.Points {
			tag.Points = append(tag.Points, replayPoint{T: p.T, X: p.Pos.X, Z: p.Pos.Z})
		}
		result.Tags = append(result.Tags, tag)
	}
	b, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out != "" {
		return os.WriteFile(*out, b, 0o644)
	}
	_, err = os.Stdout.Write(b)
	return err
}
