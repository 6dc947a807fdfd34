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
	if err := server.ReplayLog(store, *session, 0, rp, nil); err != nil {
		return err
	}

	result := struct {
		Session    string                      `json:"session"`
		SweepMS    float64                     `json:"sweep_ms"`
		Reports    int                         `json:"reports"`
		Flushes    int                         `json:"flushes"`
		CleanClose bool                        `json:"clean_close"`
		TornBytes  int64                       `json:"torn_bytes,omitempty"`
		Dense      bool                        `json:"dense,omitempty"`
		Tags       []server.RetracedTagSummary `json:"tags"`
	}{
		Session: *session, SweepMS: float64(meta.Sweep) / float64(time.Millisecond),
		Reports: stats.Reports, Flushes: stats.Flushes,
		CleanClose: stats.CleanClose, TornBytes: stats.TornBytes, Dense: *dense,
		Tags: server.RetracedTags(rp.Results()),
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
