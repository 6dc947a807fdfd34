package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/obs"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
	"rfidraw/internal/vote"
)

// The traced run replays one fixed stream through a ladder of rungs at
// GOMAXPROCS=1, so every rung is single-core busy time and the rungs add
// up. Each rung calls one layer's public functions, in pipeline order,
// and is costed by the process CPU and heap allocations it takes; the
// tracing core's calls are timed one by one and sorted by what they did.
// A layer's self cost is its rung's span minus its child spans, the
// layers it calls, which have rungs of their own:
//
//	e2e      = generator + decode + session + encode + delivery (self)
//	session  = wal_append + engine + pump (self)
//	engine   = engine_merge + engine_acquire + engine_step + engine_offer (self)
//
// The ladder runs ledgerRounds times and each layer reports its median
// round. Each round also runs the untraced end-to-end rung over the same
// stream at the workload's own GOMAXPROCS; the layers and the remainder
// split that total. The remainder is what the total spends beyond every
// layer: channel hops across cores, lock handoffs, wakeups and the
// scheduler's spinning, which one core never pays. The rungs through a
// session pump offer the stream at the workload's rate (live.go says
// why), so the wakeups of each generator tick fall in the pump's and the
// delivery's self cost. Self costs and the remainder are differences of
// measurements, so a layer cheaper than the rungs' run-to-run noise can
// read below zero.
const ledgerRounds = 3

// ledgerLayers are the ledger's rows in pipeline order.
var ledgerLayers = []string{
	"generator", "decode", "pump", "wal_append", "wal_replay", "engine_offer",
	"engine_merge", "engine_acquire", "engine_step", "encode", "delivery", "remainder",
}

// span is one traced interval: a rung, or a group of calls into a
// layer's public function covering up to one ingest burst of reports.
// Spans stay in memory and are written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Report int    `json:"report"`
	Count  int    `json:"count"`
	// Cost is the busy time the span stands for: the process CPU of a
	// rung, the summed time of a group of calls. Allocs are the heap
	// allocations it made, where they were counted.
	Cost   int64 `json:"cost_ns"`
	Allocs int64 `json:"allocs"`
}

type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

// rung opens a rung span under parent; done closes it with its cost.
func (t *tracer) rung(name string, parent int) int {
	return t.add(span{Name: name, Parent: parent, Start: t.at(time.Now())})
}

func (t *tracer) done(id int, c cost, count int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.at(time.Now())
	t.spans[id].Cost = int64(c.cpu)
	t.spans[id].Allocs = int64(c.allocs)
	t.spans[id].Count = count
}

// self is a span's cost and allocations minus its direct children's.
func (t *tracer) self(id int) (ns, allocs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ns, allocs = t.spans[id].Cost, t.spans[id].Allocs
	for _, s := range t.spans {
		if s.Parent == id && s.ID != id {
			ns -= s.Cost
			allocs -= s.Allocs
		}
	}
	return ns, allocs
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// cost is what one measured stretch of work took.
type cost struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs fn after a GC, so earlier rungs' garbage is not billed to
// it, and returns its wall time, process CPU and heap allocations.
func measure(fn func() error) (cost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	t1, c1 := time.Now(), cpuTime()
	runtime.ReadMemStats(&m1)
	return cost{wall: t1.Sub(t0), cpu: c1 - c0, allocs: m1.Mallocs - m0.Mallocs}, err
}

// minRung is how long a repeated synchronous rung runs at least, so
// microsecond-scale layers are timed over many passes.
const minRung = 50 * time.Millisecond

// repeat measures fn over as many passes as fill minRung and returns the
// cost of one pass; first is true on the pass that records spans.
func repeat(fn func(first bool) error) (cost, error) {
	passes := 0
	c, err := measure(func() error {
		start := time.Now()
		for passes == 0 || time.Since(start) < minRung {
			if err := fn(passes == 0); err != nil {
				return err
			}
			passes++
		}
		return nil
	})
	c.wall /= time.Duration(passes)
	c.cpu /= time.Duration(passes)
	c.allocs /= uint64(passes)
	return c, err
}

// layerCost is a layer's per-report busy time and allocations.
type layerCost struct{ ns, allocs float64 }

// ledger is the traced run's per-layer account of one workload.
type ledger struct {
	reports int
	rounds  map[string][]layerCost
	layers  map[string]layerCost
	// total is the untraced end-to-end cost per report of the ledger's
	// own stream at the workload's GOMAXPROCS (median round), which the
	// layers and the remainder split. workload is the end-to-end run's
	// cost per report over all its rooms, shown beside it.
	total    layerCost
	workload layerCost

	engine      []float64 // the engine rung per report, each round
	classes     [numClasses]classTotals
	classAllocs [numClasses]uint64
	encodeNS    []float64 // encode per event, each round
	walBytes    float64
	// tracedNS is the traced end-to-end rung's cost per report,
	// untracedNS the untraced one's each round, both at GOMAXPROCS=1.
	tracedNS   float64
	untracedNS []float64
	stages     map[string]float64
}

// totalRung names the rounds of the untraced multi-core end-to-end rung.
const totalRung = "e2e_multicore"

func newLedger(reports int, workload layerCost, stages map[string]float64) *ledger {
	return &ledger{reports: reports, rounds: map[string][]layerCost{}, layers: map[string]layerCost{}, workload: workload, stages: stages}
}

// per turns a rung's cost into a per-report layer cost.
func (l *ledger) per(c cost) layerCost {
	n := float64(l.reports)
	return layerCost{ns: float64(c.cpu) / n, allocs: float64(c.allocs) / n}
}

func (l *ledger) add(name string, c layerCost) { l.rounds[name] = append(l.rounds[name], c) }

// self is a rung's self cost per report: its span minus its child spans.
func (l *ledger) self(tr *tracer, id int) layerCost {
	ns, allocs := tr.self(id)
	n := float64(l.reports)
	return layerCost{ns: float64(ns) / n, allocs: float64(allocs) / n}
}

// settle takes each layer's and the total's median round and derives the
// remainder: what the total spent per report beyond every layer.
func (l *ledger) settle() {
	for name, cs := range l.rounds {
		ns, allocs := make([]float64, len(cs)), make([]float64, len(cs))
		for i, c := range cs {
			ns[i], allocs[i] = c.ns, c.allocs
		}
		l.layers[name] = layerCost{median(ns), median(allocs)}
	}
	l.total = l.layers[totalRung]
	delete(l.layers, totalRung)
	rem := l.total
	for _, name := range ledgerLayers {
		if name != "remainder" {
			rem.ns -= l.layers[name].ns
			rem.allocs -= l.layers[name].allocs
		}
	}
	l.layers["remainder"] = rem
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the ledger as the per-layer metrics.
func (l *ledger) metrics() map[string]metric {
	m := map[string]metric{}
	for _, name := range ledgerLayers {
		c := l.layers[name]
		nsKey := name + ".ns_per_report"
		switch name {
		case "pump", "delivery":
			nsKey = name + ".self_ns_per_report"
		case "wal_replay":
			nsKey = name + ".ns_per_record"
		}
		m[nsKey] = metric{c.ns, "ns"}
		m[name+".allocs_per_report"] = metric{c.allocs, "count"}
		m[name+".share"] = metric{ratio(c.ns, l.total.ns), "fraction"}
	}
	acq, step := l.classes[classAcquire], l.classes[classStep]
	engine := median(l.engine)
	m["ledger.cpu_us_per_report"] = metric{l.total.ns / 1000, "us"}
	m["ledger.allocs_per_report"] = metric{l.total.allocs, "count"}
	m["e2e.cpu_us_per_report"] = metric{l.workload.ns / 1000, "us"}
	m["e2e.allocs_per_report"] = metric{l.workload.allocs, "count"}
	m["wal_append.bytes_per_report"] = metric{l.walBytes, "bytes"}
	m["engine_acquire.ns_per_call"] = metric{ratio(float64(acq.ns), float64(acq.calls)), "ns"}
	m["engine_acquire.success_ratio"] = metric{ratio(float64(acq.ok), float64(acq.calls)), "fraction"}
	m["engine_acquire.engine_share"] = metric{ratio(l.layers["engine_acquire"].ns, engine), "fraction"}
	m["engine_step.ns_per_step"] = metric{ratio(float64(step.ns), float64(step.calls)), "ns"}
	m["engine_step.allocs_per_step"] = metric{ratio(float64(l.classAllocs[classStep]), float64(step.calls)/ledgerRounds), "count"}
	m["engine_step.search_evals_per_step"] = metric{ratio(float64(step.evals), float64(step.calls)), "count"}
	m["engine_step.engine_share"] = metric{ratio(l.layers["engine_step"].ns, engine), "fraction"}
	m["encode.ns_per_event"] = metric{median(l.encodeNS), "ns"}
	m["traced.cpu_us_per_report"] = metric{l.tracedNS / 1000, "us"}
	m["untraced.cpu_us_per_report"] = metric{median(l.untracedNS) / 1000, "us"}
	for _, st := range obs.Stages() {
		m["stage."+st.String()+".mean_us"] = metric{l.stages[st.String()], "us"}
	}
	for name, v := range m {
		if v.Value != v.Value { // NaN: a layer or count this workload never exercised
			m[name] = metric{0, v.Unit}
		}
	}
	return m
}

// table prints the ledger: each layer's ns and allocations per report
// and its share of the total, the remainder on its own row, then the
// total and the whole workload's end-to-end cost.
func (l *ledger) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %8s\n", "layer", "ns/report", "allocs/rep", "share")
	row := func(name string, c layerCost) {
		fmt.Fprintf(&b, "%-16s %12.1f %12.2f %7.1f%%\n", name, c.ns, c.allocs, 100*ratio(c.ns, l.total.ns))
	}
	for _, name := range ledgerLayers {
		row(name, l.layers[name])
	}
	row("total", l.total)
	row("workload", l.workload)
	untraced := median(l.untracedNS)
	fmt.Fprintf(&b, "total: untraced end to end over the ledger's stream at GOMAXPROCS=%d; workload: the end-to-end run over all its rooms\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "end to end at GOMAXPROCS=1, ns/report: traced %.0f, untraced %.0f (tracing overhead %.1f%%)\n",
		l.tracedNS, untraced, 100*(ratio(l.tracedNS, untraced)-1))
	return b.String()
}

// callClass sorts realtime.Tracker.Offer and Flush calls by what they
// did, read from the tracker's state before and after: merging a report
// into the open sweep (or buffering a warmup sample), an acquisition
// attempt (with the replay of the buffered prefix when it succeeds), or a
// step of the tracking stream.
type callClass uint8

const (
	classMerge callClass = iota
	classAcquire
	classStep
	numClasses
)

var classNames = [numClasses]string{"engine_merge", "engine_acquire", "engine_step"}

// classify reads one call's class from whether the tracker was tracking
// and how many warmup samples it buffered, before and after.
func classify(started0 bool, buf0 int, started1 bool, buf1, positions, warmup int, err error) (c callClass, acquired bool) {
	switch {
	case started0 && (positions > 0 || !started1 || err != nil):
		return classStep, false
	case started0:
		return classMerge, false
	case started1:
		return classAcquire, true
	case err != nil || (buf1 > buf0 && buf1 >= warmup):
		return classAcquire, false
	default:
		return classMerge, false
	}
}

// classTotals accumulates one call class over a tracker pass.
type classTotals struct {
	calls  int
	ok     int
	ns     int64
	allocs uint64
	evals  int
}

// trackerRecord is one step of a tracker pass: a report, or a drain that
// flushes every tracker.
type trackerRecord struct {
	rep   rfid.Report
	flush bool
}

// trackerPass replays the records through one realtime.Tracker per tag,
// as the engine's shard (and the Replayer) builds them: on first sight,
// sharing one scratch, a failed tag's reports dropped, every tracker
// flushed at each drain. The timing pass times every call and records a
// span per class per burst under that class's span in parents. The allocation pass (want !=
// nil) instead reads the heap's allocation count around every call — a
// stop-the-world read that would distort the timings — and checks each
// call lands in the class the timing pass gave it.
func trackerPass(sys *core.System, sweep time.Duration, record bool, recs []trackerRecord, tr *tracer, parents [numClasses]int, want []callClass) (tot [numClasses]classTotals, classes []callClass, events []server.Event, err error) {
	type tagState struct {
		t    *realtime.Tracker
		tag  string
		dead bool
	}
	scratch := vote.NewScratch()
	tags := map[rfid.EPC]*tagState{}
	var order []*tagState
	overhead := clockOverhead()
	var ms runtime.MemStats
	var burst [numClasses]classTotals
	burstStart, burstFirst := time.Now(), 0
	endBurst := func(next int) {
		for c := range burst {
			if tr != nil && burst[c].calls > 0 {
				tr.add(span{Name: classNames[c] + ".calls", Parent: parents[c], Start: tr.at(burstStart), End: tr.at(time.Now()),
					Report: burstFirst, Count: burst[c].calls, Cost: burst[c].ns})
			}
		}
		burst = [numClasses]classTotals{}
		burstStart, burstFirst = time.Now(), next
	}
	call := func(ts *tagState, rep *rfid.Report) {
		started0, buf0, evals0 := ts.t.Started(), ts.t.Buffered(), ts.t.SearchEvals()
		var a0 uint64
		if want != nil {
			runtime.ReadMemStats(&ms)
			a0 = ms.Mallocs
		}
		t0 := time.Now()
		var ps []realtime.Position
		var cerr error
		if rep != nil {
			ps, cerr = ts.t.Offer(*rep)
		} else {
			ps, cerr = ts.t.Flush()
		}
		d := max(time.Since(t0)-overhead, 0)
		var allocs uint64
		if want != nil {
			runtime.ReadMemStats(&ms)
			allocs = ms.Mallocs - a0
		}
		c, acquired := classify(started0, buf0, ts.t.Started(), ts.t.Buffered(), len(ps), realtime.DefaultWarmupSamples, cerr)
		if want != nil && err == nil && (len(classes) >= len(want) || want[len(classes)] != c) {
			err = fmt.Errorf("tracker call %d classified differently on the allocation pass", len(classes))
		}
		classes = append(classes, c)
		for _, t := range []*classTotals{&tot[c], &burst[c]} {
			t.calls++
			t.ns += int64(d)
			t.allocs += allocs
			t.evals += ts.t.SearchEvals() - evals0
			if acquired {
				t.ok++
			}
		}
		ts.dead = cerr != nil
		if want == nil {
			for _, p := range ps {
				events = append(events, server.Event{
					Type: "point", Tag: ts.tag, T: p.Time, X: p.Pos.X, Z: p.Pos.Z,
					Confidence: p.Confidence, Hypotheses: p.Hypotheses, Switched: p.Switched,
				})
			}
		}
	}
	for i := range recs {
		if i > 0 && i%256 == 0 {
			endBurst(i)
		}
		r := &recs[i]
		if r.flush {
			for _, ts := range order {
				if !ts.dead {
					call(ts, nil)
				}
			}
			continue
		}
		ts, ok := tags[r.rep.EPC]
		if !ok {
			t, terr := realtime.NewTracker(realtime.Config{
				System: sys, SweepInterval: sweep, MaxAcquireBuffer: 400,
				RecordTrace: record, Scratch: scratch,
			})
			ts = &tagState{t: t, tag: r.rep.EPC.String(), dead: terr != nil}
			tags[r.rep.EPC] = ts
			order = append(order, ts)
		}
		if !ts.dead {
			call(ts, &r.rep)
		}
	}
	endBurst(len(recs))
	return tot, classes, events, err
}

// clockOverhead is the median cost of the two clock reads that bracket
// every timed call, subtracted from each call's time.
func clockOverhead() time.Duration {
	d := make([]float64, 1001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// trackerRound runs one timing pass of the tracing core under the
// engine rung engID, one span per call class, and books the three engine
// sub-layers and the engine's own dispatch. The first round also runs
// the allocation pass and returns the emitted points as stream events.
func (l *ledger) trackerRound(tr *tracer, engID int, eng cost, sys *core.System, sweep time.Duration, record bool, recs []trackerRecord, first bool) ([]server.Event, error) {
	var classIDs [numClasses]int
	for c := range classIDs {
		classIDs[c] = tr.rung(classNames[c], engID)
	}
	tot, classes, events, err := trackerPass(sys, sweep, record, recs, tr, classIDs, nil)
	if err != nil {
		return nil, err
	}
	if first {
		runtime.GC()
		allocTot, _, _, err := trackerPass(sys, sweep, record, recs, nil, classIDs, classes)
		if err != nil {
			return nil, err
		}
		for c := range allocTot {
			l.classAllocs[c] = allocTot[c].allocs
		}
	}
	for c := range tot {
		cc := cost{cpu: time.Duration(tot[c].ns), allocs: l.classAllocs[c]}
		tr.done(classIDs[c], cc, tot[c].calls)
		l.add(classNames[c], l.per(cc))
		l.classes[c].calls += tot[c].calls
		l.classes[c].ok += tot[c].ok
		l.classes[c].ns += tot[c].ns
		l.classes[c].evals += tot[c].evals
	}
	l.engine = append(l.engine, float64(eng.cpu)/float64(l.reports))
	l.add("engine_offer", l.self(tr, engID))
	return events, nil
}
