package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/engine"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/server"
	"rfidraw/internal/wal"
)

// The retrace workload re-traces recorded sessions in a closed loop. The
// records are solo-durable-shaped — one writer writing "touch", looped
// through handwriting realizations — so retrace reads the WAL
// solo-durable writes and runs the synchronous engine.Replayer with
// RecordTrace over it, with no ingest, reorder or fan-out. A retrace
// answers with each tag's final trajectory only, one word per session,
// so the run records many sessions and re-traces them in turn.
const (
	retraceSessions = 48
	retraceReports  = 4000 // per recorded session: two loops of "touch"
)

func recordedID(j int) string { return fmt.Sprintf("recorded-%d", j) }

// recordSessions is retrace's untimed preparation: it streams each
// scenario's first retraceReports reports into its own session of a
// durable daemon at solo-durable's rate, drains them, and shuts the
// daemon down so every log is closed, compacted and retained.
func recordSessions(ctx context.Context, dataDir string, scs []*scenario) error {
	d, err := startDaemon(dataDir)
	if err != nil {
		return err
	}
	defer d.close()
	for j, sc := range scs {
		id, err := d.cl.CreateSession(ctx, server.SessionSpec{ID: recordedID(j), Sweep: sc.sweep})
		if err != nil {
			return err
		}
		rs, err := d.cl.DialIngest(id, readerwire.Hello{Proto: readerwire.ProtoVersion, ReaderID: 1, AntennaCount: 4, SweepInterval: sc.sweep})
		if err != nil {
			return err
		}
		if _, err := sendPaced(sc, soloDurable.rate, 0, retraceReports, toSocket(rs)); err != nil {
			rs.Close()
			return err
		}
		if err := rs.Close(); err != nil {
			return err
		}
		if err := d.awaitReports(ctx, id, retraceReports); err != nil {
			return err
		}
		if err := d.cl.DrainSession(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

// retraceReference re-traces the generated stream with engine.Replayer
// under RecordTrace and shapes the results as the retrace endpoint does.
func retraceReference(sys *core.System, sc *scenario, n int) ([]server.RetracedTagSummary, error) {
	rp, err := engine.NewReplayer(engine.Config{System: sys, SweepInterval: sc.sweep, MaxAcquireBuffer: 400, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	st := sc.stream()
	for i := 0; i < n; i++ {
		if err := rp.Offer(st.next()); err != nil {
			return nil, err
		}
	}
	rp.Flush()
	return summarizeRetrace(rp.Results()), nil
}

func summarizeRetrace(results []engine.TagResult) []server.RetracedTagSummary {
	out := make([]server.RetracedTagSummary, 0, len(results))
	for _, res := range results {
		tag := server.RetracedTagSummary{Tag: res.Tag}
		if res.Err != nil {
			tag.Err = res.Err.Error()
			out = append(out, tag)
			continue
		}
		tag.Chosen = res.Result.BestIndex
		init := res.Result.InitialPosition()
		tag.Initial = server.PointJSON{X: init.X, Z: init.Z}
		tag.LeaderSwitches = res.Result.LeaderSwitches
		tag.Retirements = res.Result.Retirements
		for _, p := range res.Result.Best.Trajectory.Points {
			tag.Points = append(tag.Points, server.TracePointJSON{T: p.T, X: p.Pos.X, Z: p.Pos.Z})
		}
		out = append(out, tag)
	}
	return out
}

// sameRetrace compares a retrace response with the reference tag by tag.
func sameRetrace(ref, got []server.RetracedTagSummary) error {
	if len(ref) != len(got) {
		return fmt.Errorf("retrace returned %d tags, the reference %d", len(got), len(ref))
	}
	for i := range ref {
		r, g := ref[i], got[i]
		if r.Tag != g.Tag || r.Err != g.Err || r.Chosen != g.Chosen || r.Initial != g.Initial ||
			r.LeaderSwitches != g.LeaderSwitches || r.Retirements != g.Retirements || len(r.Points) != len(g.Points) {
			return fmt.Errorf("retrace tag %s differs from the reference", g.Tag)
		}
		for k := range r.Points {
			if r.Points[k] != g.Points[k] {
				return fmt.Errorf("retrace tag %s point %d differs from the reference", g.Tag, k)
			}
		}
	}
	return nil
}

// runRetrace records the sessions, restarts the daemon over their data
// dir (set-up includes recovering them) and re-traces them in turn for
// the run's seconds. Every response must match its session's first byte
// for byte, and each first must match the reference.
func runRetrace(ctx context.Context, cfg runConfig, o *outcome) error {
	scs := make([]*scenario, retraceSessions)
	for j := range scs {
		var err error
		// A record holds two loops: the same words solo-durable's session
		// j writes in its first two loops.
		if scs[j], err = newScenario(roomSeeds(cfg.seed, j*soloDurable.reals, 2), soloDurable.texts, soloDurable.starts); err != nil {
			return err
		}
	}
	dataDir := filepath.Join(cfg.work, "data")
	if err := recordSessions(ctx, dataDir, scs); err != nil {
		return fmt.Errorf("record sessions: %w", err)
	}
	d, setup, err := setupDaemon(dataDir)
	if err != nil {
		return err
	}
	defer d.close()
	sys, err := referenceSystem()
	if err != nil {
		return err
	}
	refs := make([][]server.RetracedTagSummary, len(scs))
	for j, sc := range scs {
		if info, err := d.info(ctx, recordedID(j)); err != nil || info.State != "recovered" {
			return fmt.Errorf("recorded session %d not recovered (state %q): %v", j, info.State, err)
		}
		if refs[j], err = retraceReference(sys, sc, retraceReports); err != nil {
			return err
		}
	}

	var lats []float64
	firsts := make([][]byte, len(scs))
	sums := make([]*server.RetraceSummary, len(scs))
	var records uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuTime(), time.Now()
	for k := 0; time.Since(start) < time.Duration(cfg.seconds)*time.Second; k++ {
		j := k % len(scs)
		t0 := time.Now()
		sum, raw, err := d.cl.Retrace(ctx, recordedID(j), "")
		lats = append(lats, float64(time.Since(t0))/float64(time.Millisecond))
		o.attempted++
		switch {
		case err != nil:
			o.failed++
			o.violate("retrace %d of session %d: %v", k, j, err)
			continue
		case firsts[j] == nil:
			firsts[j], sums[j] = raw, sum
			if sum.Records != retraceReports+2 {
				o.violate("session %d: retrace covered %d records, the recording wrote %d reports, a flush and a close", j, sum.Records, retraceReports)
			}
			if err := sameRetrace(refs[j], sum.Tags); err != nil {
				o.failed++
				o.violate("session %d: %v", j, err)
			}
		case !bytes.Equal(raw, firsts[j]):
			o.failed++
			o.violate("retrace %d of session %d differs from its first byte for byte", k, j)
		}
		records += sum.Records
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	var errs []float64
	for j, sum := range sums {
		if sum == nil {
			return fmt.Errorf("no retrace of session %d succeeded", j)
		}
		var pts []tracePoint
		for _, tag := range sum.Tags {
			for _, p := range tag.Points {
				pts = append(pts, tracePoint{tag.Tag, p.T, p.X, p.Z})
			}
		}
		errs = append(errs, wordErrorsCM(scs[j], pts)...)
	}
	lat := latencySummary(lats)
	n := float64(records)
	e2e := layerCost{ns: float64(cpu) / n, allocs: float64(m1.Mallocs-m0.Mallocs) / n}
	o.detail["retrace"] = map[string]any{
		"sessions": len(scs), "records_per_call": retraceReports + 2, "calls": len(lats),
		"latency_ms": lat, "trace_err_words": len(errs),
	}
	o.detail["setup"] = setup
	o.logf("retrace: %d calls of %d records in %.2fs; latency %s", len(lats), retraceReports+2, elapsed.Seconds(), lat)
	if !cfg.trace {
		o.metrics = endToEnd(e2e, median(errs), setup)
		return nil
	}
	l, tr, err := runRetraceLedger(ctx, d, sys, scs[0].sweep, dataDir, e2e, int(sums[0].Records), sums[0], firsts[0], o)
	if err != nil {
		return err
	}
	return o.finishLedger(cfg, l, tr, wallClock(lat))
}

// retraceLedger is retrace's traced run: the retrace call end to end,
// and under it the client's decode of the response, the WAL read, the
// synchronous engine (Replayer with RecordTrace, then its results) with
// the tracing core's calls one by one, and the response's encode.
type retraceLedger struct {
	ctx   context.Context
	d     *daemon
	sys   *core.System
	sweep time.Duration
	store *wal.Store
	recs  []trackerRecord
	sum   *server.RetraceSummary
	raw   []byte
	tr    *tracer
	l     *ledger
	o     *outcome
	root  int
}

func runRetraceLedger(ctx context.Context, d *daemon, sys *core.System, sweep time.Duration, dataDir string, workload layerCost, records int, sum *server.RetraceSummary, raw []byte, o *outcome) (*ledger, *tracer, error) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	store, err := wal.Open(dataDir, wal.Options{})
	if err != nil {
		return nil, nil, err
	}
	rl := &retraceLedger{ctx: ctx, d: d, sys: sys, sweep: sweep, store: store, sum: sum, raw: raw,
		tr: newTracer(), l: newLedger(records, workload, map[string]float64{}), o: o}
	if err := store.Replay(recordedID(0), 0, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecordReport:
			rl.recs = append(rl.recs, trackerRecord{rep: rec.Report})
		case wal.RecordFlush, wal.RecordClose:
			rl.recs = append(rl.recs, trackerRecord{flush: true})
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	rl.root = rl.tr.add(span{Name: "ledger", Parent: -1})
	runtime.GOMAXPROCS(1)
	tracedID := rl.tr.rung("e2e_traced", rl.root)
	traced, err := measure(func() error { return rl.call(tracedID) })
	if err != nil {
		return nil, nil, err
	}
	rl.tr.done(tracedID, traced, records)
	rl.l.tracedNS = rl.l.per(traced).ns
	for r := 0; r < ledgerRounds; r++ {
		runtime.GOMAXPROCS(procs)
		totalID := rl.tr.rung(totalRung, rl.root)
		total, err := repeat(func(bool) error { return rl.call(-1) })
		if err != nil {
			return nil, nil, err
		}
		rl.tr.done(totalID, total, records)
		rl.l.add(totalRung, rl.l.per(total))
		runtime.GOMAXPROCS(1)
		if err := rl.round(r == 0); err != nil {
			return nil, nil, err
		}
	}
	rl.l.settle()
	return rl.l, rl.tr, nil
}

// call makes one retrace request of the ledger's session and checks it
// against the first response; with tracedID ≥ 0 it records the request
// as a span.
func (rl *retraceLedger) call(tracedID int) error {
	t0 := time.Now()
	_, got, err := rl.d.cl.Retrace(rl.ctx, recordedID(0), "")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, rl.raw) {
		rl.o.violate("ledger retrace differs from the first byte for byte")
	}
	if tracedID >= 0 {
		t1 := time.Now()
		rl.tr.add(span{Name: "retrace.request", Parent: tracedID, Start: rl.tr.at(t0), End: rl.tr.at(t1), Count: rl.l.reports, Cost: int64(t1.Sub(t0))})
	}
	return nil
}

func (rl *retraceLedger) round(first bool) error {
	l, tr, n := rl.l, rl.tr, rl.l.reports
	e2eID := tr.rung("e2e", rl.root)
	e2e, err := repeat(func(bool) error { return rl.call(-1) })
	if err != nil {
		return err
	}
	tr.done(e2eID, e2e, n)
	l.untracedNS = append(l.untracedNS, l.per(e2e).ns)

	// Client side: decoding the response.
	genID := tr.rung("generator", e2eID)
	gen, err := repeat(func(bool) error {
		var s server.RetraceSummary
		return json.Unmarshal(rl.raw, &s)
	})
	if err != nil {
		return err
	}
	tr.done(genID, gen, n)
	l.add("generator", l.per(gen))

	// WAL read.
	walID := tr.rung("wal_replay", e2eID)
	wc, err := repeat(func(bool) error {
		count := 0
		err := rl.store.Replay(recordedID(0), 0, func(wal.Record) error { count++; return nil })
		if err == nil && count != len(rl.recs) {
			err = fmt.Errorf("WAL replay read %d records, then %d", len(rl.recs), count)
		}
		return err
	})
	if err != nil {
		return err
	}
	tr.done(walID, wc, n)
	l.add("wal_replay", l.per(wc))

	// The synchronous engine: Replayer with RecordTrace, then its results.
	engID := tr.rung("engine", e2eID)
	var results []engine.TagResult
	ec, err := measure(func() error {
		rp, err := engine.NewReplayer(engine.Config{System: rl.sys, SweepInterval: rl.sweep, MaxAcquireBuffer: 400, RecordTrace: true})
		if err != nil {
			return err
		}
		for _, r := range rl.recs {
			if r.flush {
				rp.Flush()
			} else if err := rp.Offer(r.rep); err != nil {
				return err
			}
		}
		rp.Flush()
		results = rp.Results()
		return nil
	})
	if err != nil {
		return err
	}
	tr.done(engID, ec, n)
	if err := sameRetrace(summarizeRetrace(results), rl.sum.Tags); err != nil {
		rl.o.violate("ledger replayer: %v", err)
	}
	if _, err := l.trackerRound(tr, engID, ec, rl.sys, rl.sweep, true, rl.recs, first); err != nil {
		return err
	}

	// The response's encode, as the endpoint's JSON encoder does it.
	encID := tr.rung("encode", e2eID)
	resp := server.RetraceSummary{ID: recordedID(0), Records: rl.sum.Records, Tags: summarizeRetrace(results)}
	enc, err := repeat(func(bool) error {
		_, err := json.Marshal(resp)
		return err
	})
	if err != nil {
		return err
	}
	tr.done(encID, enc, n)
	l.add("encode", l.per(enc))
	l.encodeNS = append(l.encodeNS, float64(enc.cpu)/float64(len(resp.Tags)))
	l.add("delivery", l.self(tr, e2eID))
	return nil
}
