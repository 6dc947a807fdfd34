package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// liveWorkload is a reader-socket-to-subscriber workload on a durable
// daemon: its sessions run one after another, each with one reader
// connection and one NDJSON stream connection, in an open loop at a
// fixed offered rate below the daemon's capacity.
//
// Nothing in the benchmark offers a session pump more than that rate.
// The pump drains its session, closing open sweeps, once it takes two of
// its 50 ms ticks with no inbox item between them, even while input
// waits in the inbox. It can do so whenever the engine is backed up for
// about 50 ms: a burst the pump spends that long handing to a full
// engine queue, then a stats tick that waits on the same queue. An
// unpaced sender keeps that queue full, and so do eight writers
// acquiring at once (bench_test.go's scenario), even paced. A drain
// mid-word moves the delivered trace off the reference and fails the
// gate.
type liveWorkload struct {
	name   string
	texts  []string
	starts []geom.Vec2
	// sessions is how many scenarios a run draws, each run in a session
	// of its own.
	sessions int
	// reals is how many realizations one loop cycle holds, each written
	// in a room of its own: one room's accuracy, acquisition cost and
	// writer deaths swing too far from seed to seed for a run to rest on
	// a few.
	reals int
	// rate is the offered rate as a speed-up of real time, about a third
	// of what the daemon carries unpaced.
	rate float64
	// ledgerReports is how much of the looped stream the traced run
	// replays through each rung.
	ledgerReports int
	// scoreLoops is how many loops the accuracy score covers.
	scoreLoops int
}

// soloDurable is one writer writing "touch" into a durable daemon, so
// the tracing step dominates the engine and the WAL, pump and NDJSON
// delivery carry their largest share. Each session's loops cycle
// through sixteen realizations in sixteen rooms, about as many as a
// session writes: with one, the engine's cost per report swings by ±20%
// from seed to seed, and the accuracy score needs many distinct words.
var soloDurable = liveWorkload{
	name:     "solo-durable",
	texts:    []string{"touch"},
	starts:   []geom.Vec2{{X: 0.9, Z: 1.0}},
	sessions: 16,
	reals:    16,
	rate:     60,

	ledgerReports: 40000,
	scoreLoops:    16,
}

// referenceSystem is the positioning system rfidraw.New builds for the
// daemon's default deployment at 2 m; the reference replays run on it.
func referenceSystem() (*core.System, error) {
	return core.NewSystem(nil, core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()})
}

// sessionRun is what one session delivered and cost.
type sessionRun struct {
	paced
	name     string
	id       string
	cpu      time.Duration // process CPU from the first send to the drain
	mallocs  uint64
	sub      subscriber
	tagErrs  map[string]string
	err      error // the session was refused or errored
	gateErrs []string
}

// runSession runs session j: subscriber attached first, then the looped
// stream on one reader connection on the stream-time schedule at w.rate
// for dur, then the daemon's own counters, a drain and the stream's end.
func runSession(ctx context.Context, d *daemon, w liveWorkload, sc *scenario, j int, dur time.Duration) *sessionRun {
	p := &sessionRun{name: fmt.Sprintf("session %d", j)}
	p.err = p.run(ctx, d, w, sc, dur)
	return p
}

func (p *sessionRun) run(ctx context.Context, d *daemon, w liveWorkload, sc *scenario, dur time.Duration) error {
	id, err := d.cl.CreateSession(ctx, server.SessionSpec{Sweep: sc.sweep})
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	p.id = id
	if err := d.subscribe(ctx, id, &p.sub); err != nil {
		return err
	}
	rs, err := d.cl.DialIngest(id, readerwire.Hello{
		Proto: readerwire.ProtoVersion, ReaderID: 1, AntennaCount: 4, SweepInterval: sc.sweep,
	})
	if err != nil {
		return fmt.Errorf("dial ingest: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	if p.paced, err = sendPaced(sc, w.rate, dur, 0, toSocket(rs)); err != nil {
		rs.Close()
		return fmt.Errorf("send: %w", err)
	}
	if err := rs.Close(); err != nil {
		return fmt.Errorf("close reader: %w", err)
	}
	if err := d.awaitReports(ctx, id, p.sent); err != nil {
		p.gateErrs = append(p.gateErrs, err.Error())
	}
	if err := d.cl.DrainSession(ctx, id); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	info, err := d.info(ctx, id)
	if err != nil {
		return err
	}
	p.tagErrs = map[string]string{}
	for _, t := range info.Tags {
		if t.Err != "" {
			p.tagErrs[t.Tag] = t.Err
		}
	}
	if err := d.cl.DeleteSession(ctx, id); err != nil {
		return fmt.Errorf("delete session: %w", err)
	}
	if err := p.sub.wait(60 * time.Second); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// generatorTick is the generator's send cadence.
const generatorTick = time.Millisecond

// paced is what one open-loop send did: when its schedule started, how
// many reports it sent and how late each left the generator.
type paced struct {
	start  time.Time
	sent   int
	lateMS []float64
}

// sendPaced sends the looped stream on its stream-time schedule at rate
// times real time: every generatorTick, the reports whose time has come
// go to send as one batch. It stops at the first report due at or after
// dur, or after max reports (either 0: no limit). The schedule is fixed by the
// reports' stream times, never by the daemon, so a stall shows up as
// lateness here and as latency on the points it delays.
func sendPaced(sc *scenario, rate float64, dur time.Duration, max int, send func([]rfid.Report) error) (paced, error) {
	st := sc.stream()
	next := st.next()
	p := paced{start: time.Now().Add(5 * time.Millisecond)}
	dueOf := func(t time.Duration) time.Duration { return time.Duration(float64(t) / rate) }
	taken := 0
	more := func() bool { return (dur == 0 || dueOf(next.Time) < dur) && (max == 0 || taken < max) }
	var batch []rfid.Report
	var dues []time.Duration
	for tick := p.start; more(); tick = tick.Add(generatorTick) {
		if wait := time.Until(tick); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(p.start)
		batch, dues = batch[:0], dues[:0]
		for more() && dueOf(next.Time) <= now {
			batch = append(batch, next)
			dues = append(dues, dueOf(next.Time))
			taken++
			next = st.next()
		}
		if len(batch) == 0 {
			continue
		}
		if err := send(batch); err != nil {
			return p, err
		}
		sentAt := time.Since(p.start)
		for _, due := range dues {
			p.lateMS = append(p.lateMS, float64(sentAt-due)/float64(time.Millisecond))
		}
		p.sent += len(batch)
		if behind := time.Since(tick); behind > generatorTick {
			// Catch up on the schedule rather than on the tick grid: the
			// next tick is now, and everything due by then goes out in it.
			tick = time.Now().Add(-generatorTick)
		}
	}
	return p, nil
}

// toSocket writes each batch to a reader connection and flushes it.
func toSocket(rs *server.ReaderStream) func([]rfid.Report) error {
	return func(batch []rfid.Report) error {
		for _, rep := range batch {
			if err := rs.Send(rep); err != nil {
				return err
			}
		}
		return rs.Flush()
	}
}

// pointKey identifies a trace point: a writer's position at one sample
// time, which the engine emits at most once.
type pointKey struct {
	tag string
	t   time.Duration
}

// refPoint is a reference point and the index of the report on whose
// Offer the replay emitted it (-1: emitted by the final drain).
type refPoint struct {
	x, z    float64
	trigger int
}

// reference replays the first n reports of the looped stream through
// engine.Replayer, the synchronous scheduler over the daemon's tracing
// core, then drains it as the session's final drain does.
func reference(sys *core.System, sc *scenario, n int) (refSet, error) {
	rp, err := engine.NewReplayer(engine.Config{System: sys, SweepInterval: sc.sweep, MaxAcquireBuffer: 400})
	if err != nil {
		return refSet{}, err
	}
	out := refSet{points: map[pointKey]refPoint{}}
	offered, carried := map[rfid.EPC]int{}, map[rfid.EPC]int{}
	var cur rfid.EPC
	trigger := 0
	var dup error
	rp.OnUpdate = func(u engine.Update) {
		epc := cur
		if trigger < 0 {
			epc, _ = rfid.ParseEPC(u.Tag) // a drain flushes every tag
		}
		carried[epc] = offered[epc]
		for _, ps := range u.Positions {
			k := pointKey{u.Tag, ps.Time}
			if _, ok := out.points[k]; ok && dup == nil {
				dup = fmt.Errorf("reference emitted %s at %v twice", u.Tag, ps.Time)
			}
			out.points[k] = refPoint{x: ps.Pos.X, z: ps.Pos.Z, trigger: trigger}
		}
	}
	st := sc.stream()
	for ; trigger < n; trigger++ {
		rep := st.next()
		cur = rep.EPC
		offered[cur]++
		if err := rp.Offer(rep); err != nil {
			return refSet{}, err
		}
	}
	trigger = -1
	rp.Flush()
	for _, c := range carried {
		out.carried += c
	}
	return out, dup
}

// refSet is a session's reference: every point the replay emitted, and
// how many reports reached a trace — each writer's reports up to its
// last point, so a writer whose pipeline died carries nothing after it.
type refSet struct {
	points  map[pointKey]refPoint
	carried int
}

// refJob is one session's reference: the first n reports of its stream.
type refJob struct {
	sc *scenario
	n  int
}

// referenceWorkers replay references side by side, one per core: the
// daemon is idle by then, and the replays share only the read-only
// system.
const referenceWorkers = 2

func references(sys *core.System, jobs []refJob) ([]refSet, error) {
	out := make([]refSet, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < referenceWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = reference(sys, jobs[i].sc, jobs[i].n)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareStream checks delivered points against the reference as sets
// (the final drain's event order follows map iteration) and returns one
// message per kind of mismatch plus the writers affected.
func compareStream(ref map[pointKey]refPoint, got []recvPoint) (msgs []string, bad map[string]bool) {
	bad = map[string]bool{}
	seen := make(map[pointKey]bool, len(got))
	var extra, moved, dup, missing int
	first := pointKey{t: math.MaxInt64}
	mismatch := func(k pointKey, n *int) {
		*n++
		bad[k.tag] = true
		if k.t < first.t {
			first = k
		}
	}
	for _, p := range got {
		k := pointKey{p.tag, p.t}
		r, ok := ref[k]
		switch {
		case !ok:
			mismatch(k, &extra)
		case seen[k]:
			mismatch(k, &dup)
		case r.x != p.x || r.z != p.z:
			mismatch(k, &moved)
		}
		seen[k] = true
	}
	for k := range ref {
		if !seen[k] {
			mismatch(k, &missing)
		}
	}
	for _, c := range []struct {
		n    int
		what string
	}{{extra, "points the reference never emitted"}, {dup, "duplicate points"}, {moved, "points at other positions than the reference"}, {missing, "reference points never delivered"}} {
		if c.n > 0 {
			msgs = append(msgs, fmt.Sprintf("%d %s (the first mismatch: writer %.8s at %v)", c.n, c.what, first.tag, first.t))
		}
	}
	return msgs, bad
}

// gate applies the live correctness gate to one session run and counts its
// operations: one per writer, failed when the session was refused or
// errored, the writer's pipeline died, or its points differ from the
// reference.
func (p *sessionRun) gate(sc *scenario, ref map[pointKey]refPoint, o *outcome) {
	name := p.name
	o.attempted += len(sc.writers)
	if p.err != nil {
		o.violate("%s session: %v", name, p.err)
		o.failed += len(sc.writers)
		return
	}
	for _, msg := range p.gateErrs {
		o.violate("%s: %s", name, msg)
	}
	if !p.sub.ended {
		o.violate("%s: stream ended without an end event", name)
	}
	if p.sub.drops > 0 {
		o.violate("%s: stream announced %d dropped events", name, p.sub.drops)
	}
	msgs, bad := compareStream(ref, p.sub.points)
	for _, msg := range msgs {
		o.violate("%s: %s", name, msg)
	}
	for _, w := range sc.writers {
		if err, dead := p.tagErrs[w]; dead || bad[w] {
			o.failed++
			if dead {
				o.note("%s: writer %s failed: %s", name, w[:8], err)
			}
		}
	}
}

// latencies returns each delivered point's latency in ms: its receipt
// minus the scheduled send of the report whose arrival made the daemon
// offer the point's trigger report to its engine. That is the first
// report at least reorderWindow later in stream time, the one that
// releases the trigger from the reorder buffer: the window's hold is
// stream time the benchmark compresses by its speed-up, and over a loop
// pause it would bill the pause itself to the last points of every word.
// Points only a drain released have no such report and are not samples.
func (p *sessionRun) latencies(sc *scenario, ref map[pointKey]refPoint, rate float64) []float64 {
	var out []float64
	for _, pt := range p.sub.points {
		r, ok := ref[pointKey{pt.tag, pt.t}]
		if !ok || r.trigger < 0 {
			continue
		}
		release, ok := sc.release(r.trigger, p.sent)
		if !ok {
			continue
		}
		due := p.start.Add(sc.due(release, rate))
		out = append(out, float64(pt.at.Sub(due))/float64(time.Millisecond))
	}
	return out
}

// tracePoint is a delivered or retraced position at a stream time.
type tracePoint struct {
	tag  string
	t    time.Duration
	x, z float64
}

// wordErrorsCM scores points against the simulator's ground truth: they
// are grouped by writer and loop — one written word each — and each
// group is compared with that writer's true trajectory sampled at the
// same instants (traj.MedianError with AlignInitial, the paper's shape
// error). It returns one error per word, in cm.
func wordErrorsCM(sc *scenario, pts []tracePoint) []float64 {
	writer := map[string]int{}
	for i, w := range sc.writers {
		writer[w] = i
	}
	type group struct{ w, loop int }
	groups := map[group][]traj.Point{}
	for _, p := range pts {
		w, ok := writer[p.tag]
		if !ok {
			continue
		}
		loop, local := sc.locate(p.t)
		g := group{w, loop}
		groups[g] = append(groups[g], traj.Point{T: local, Pos: geom.Vec2{X: p.x, Z: p.z}})
	}
	var errs []float64
	for g, recon := range groups {
		if len(recon) < 4 {
			continue
		}
		sort.Slice(recon, func(i, j int) bool { return recon[i].T < recon[j].T })
		r, _ := sc.loopOf(g.loop)
		truth := r.truths[g.w]
		at := make([]traj.Point, len(recon))
		for i, p := range recon {
			pos, err := truth.At(p.T)
			if err != nil {
				continue
			}
			at[i] = traj.Point{T: p.T, Pos: pos}
		}
		e, err := traj.MedianError(traj.Trajectory{Points: at}, traj.Trajectory{Points: recon}, traj.AlignInitial, 64)
		if err != nil {
			continue
		}
		errs = append(errs, e*100)
	}
	return errs
}

// generatorBehindMS flags a run whose generator fell behind:
// more than 1% of reports left later than this after their schedule.
const generatorBehindMS = 5

// runLive runs a live workload's sessions, gates each against its
// reference and reports the end-to-end metrics, or with --trace 1 the
// ledger.
func runLive(ctx context.Context, w liveWorkload, cfg runConfig, o *outcome) error {
	scs := make([]*scenario, w.sessions)
	for j := range scs {
		var err error
		if scs[j], err = newScenario(roomSeeds(cfg.seed, j*w.reals, w.reals), w.texts, w.starts); err != nil {
			return err
		}
	}
	sys, err := referenceSystem()
	if err != nil {
		return err
	}
	d, setup, err := setupDaemon(filepath.Join(cfg.work, "data"))
	if err != nil {
		return err
	}
	defer d.close()

	// One session per scenario, back to back, sharing the run.
	per := time.Duration(cfg.seconds) * time.Second / time.Duration(len(scs))
	before, err := d.stageTotals(ctx)
	if err != nil {
		return err
	}
	runs := make([]*sessionRun, len(scs))
	for j, sc := range scs {
		runs[j] = runSession(ctx, d, w, sc, j, per)
	}
	after, err := d.stageTotals(ctx)
	if err != nil {
		return err
	}
	stages := stageMeansUS(before, after)

	jobs := make([]refJob, len(scs))
	for j, sc := range scs {
		jobs[j] = refJob{sc: sc, n: runs[j].sent}
	}
	refs, err := references(sys, jobs)
	if err != nil {
		return err
	}
	var lats, late, errs []float64
	var sent, carried, points int
	var cpu time.Duration
	var mallocs uint64
	for j, sc := range scs {
		p := runs[j]
		p.gate(sc, refs[j].points, o)
		// A session that errored is counted by its gate; the metrics
		// rest on the sessions that ran.
		if p.err != nil {
			continue
		}
		lats = append(lats, p.latencies(sc, refs[j].points, w.rate)...)
		late = append(late, p.lateMS...)
		// Score only loops the session finished with a loop to spare: a
		// word's last points leave with the next loop's first reports.
		words, err := wordTraces(sys, sc, min(w.scoreLoops, sc.loopsIn(p.sent)-1), refs[j].points)
		if err != nil {
			return err
		}
		errs = append(errs, wordErrorsCM(sc, words)...)
		sent += p.sent
		carried += refs[j].carried
		points += len(p.sub.points)
		cpu += p.cpu
		mallocs += p.mallocs
	}
	if carried == 0 || len(errs) == 0 {
		return fmt.Errorf("%s: no session carried a report to a scored trace", w.name)
	}
	lat, lateness := latencySummary(lats), summarize(late)
	if lateness.P99 > generatorBehindMS {
		o.note("generator fell behind: p99 lateness %.2f ms (max %.2f ms)", lateness.P99, lateness.Max)
	}
	if !lat.tailSupported() {
		o.note("p99 latency rests on %d samples, fewer than ten beyond it", lat.Count)
	}
	// Cost counts the reports carried to a trace: a dead writer's later
	// reports are refused work, counted as its failure.
	n := float64(carried)
	e2e := layerCost{ns: float64(cpu) / n, allocs: float64(mallocs) / n}
	o.detail["setup"] = setup
	o.detail["sessions"] = map[string]any{
		"sessions": len(scs), "rate_x_realtime": w.rate, "reports": sent, "carried": carried, "points": points,
		"cpu_s": cpu.Seconds(), "latency_ms": lat, "generator_lateness_ms": lateness,
		"generator_behind": lateness.P99 > generatorBehindMS, "stage_mean_us": stages, "trace_err_words": len(errs),
	}
	o.logf("%s: setup %.3fs; %d sessions at %gx: %d reports (%d carried), latency %s, generator late %s",
		w.name, setup.Median, len(scs), w.rate, sent, carried, lat, lateness)
	if !cfg.trace {
		o.metrics = endToEnd(e2e, median(errs), setup)
		return nil
	}
	l, tr, err := runLiveLedger(ctx, d, w, scs[0], sys, w.ledgerReports, cfg.work, e2e, stages, o)
	if err != nil {
		return err
	}
	return o.finishLedger(cfg, l, tr, wallClock(lat))
}

// roomSeeds derives the seeds of n of a run's rooms, from its first-th
// on; room 0 is the run's own seed.
func roomSeeds(seed int64, first, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = seed + int64(first+k)*1_000_003
	}
	return out
}

func (s summary) String() string {
	return fmt.Sprintf("p50 %.2f ms, p99 %.2f ms, max %.2f ms (n=%d)", s.P50, s.P99, s.Max, s.Count)
}

// wordTraces replays the first loops of the stream through one
// realtime.Tracker per writer, built as the engine builds them, and
// returns each writer's points per loop from its last acquisition in
// that loop on: the trajectory the tracker reports for the word, without
// the points it emitted on the previous word's lobes before its loss
// detector fired. Every point must be one the reference emitted, at the
// same position.
func wordTraces(sys *core.System, sc *scenario, loops int, ref map[pointKey]refPoint) ([]tracePoint, error) {
	type segPoint struct {
		tracePoint
		loop, segment int
	}
	type writer struct {
		t       *realtime.Tracker
		dead    bool
		segment int
	}
	scratch := vote.NewScratch()
	writers := map[rfid.EPC]*writer{}
	var pts []segPoint
	st := sc.stream()
	for st.loop < loops {
		rep := st.next()
		w, ok := writers[rep.EPC]
		if !ok {
			t, err := realtime.NewTracker(realtime.Config{System: sys, SweepInterval: sc.sweep, MaxAcquireBuffer: 400, Scratch: scratch})
			w = &writer{t: t, dead: err != nil}
			writers[rep.EPC] = w
		}
		if w.dead {
			continue
		}
		was := w.t.Started()
		ps, err := w.t.Offer(rep)
		if !was && w.t.Started() {
			w.segment++
		}
		for _, p := range ps {
			loop, _ := sc.locate(p.Time)
			pts = append(pts, segPoint{tracePoint{rep.EPC.String(), p.Time, p.Pos.X, p.Pos.Z}, loop, w.segment})
		}
		w.dead = err != nil
	}
	type group struct {
		tag  string
		loop int
	}
	last := map[group]int{}
	for _, p := range pts {
		last[group{p.tag, p.loop}] = p.segment
	}
	var out []tracePoint
	for _, p := range pts {
		r, ok := ref[pointKey{p.tag, p.t}]
		if !ok || r.x != p.x || r.z != p.z {
			return nil, fmt.Errorf("accuracy replay emitted %s at %v, which the reference did not", p.tag[:8], p.t)
		}
		if p.loop < loops && p.segment == last[group{p.tag, p.loop}] {
			out = append(out, p.tracePoint)
		}
	}
	return out, nil
}
