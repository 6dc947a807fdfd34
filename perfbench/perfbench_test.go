package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
)

func TestSummarizeReportsPercentilesWithCount(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	s := summarize(v)
	if s.Count != 1000 || s.P50 != 500 || s.P99 != 990 || s.Max != 1000 {
		t.Fatalf("summary = %+v, want count 1000, p50 500, p99 990, max 1000", s)
	}
	if !s.tailSupported() {
		t.Fatal("a p99 over 1000 samples has ten beyond it")
	}
	if small := summarize([]float64{3, 1, 2}); small.Count != 3 || small.P50 != 2 || small.P99 != 3 || small.tailSupported() {
		t.Fatalf("small summary = %+v", small)
	}
	if empty := summarize(nil); empty.Count != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}

func TestLatencySummaryWindowsTheTail(t *testing.T) {
	v := make([]float64, 3*tailWindow+500)
	for i := range v {
		v[i] = float64(i%100) / 10 // 0 … 9.9 ms in every window
	}
	for i := 0; i < 200; i++ {
		v[tailWindow+i] = 50 // one stalled stretch, all in window two
	}
	s := latencySummary(v)
	if s.Count != len(v) || s.Max != 50 {
		t.Fatalf("summary = %+v", s)
	}
	if want := summarize(v[:tailWindow]).P99; s.P99 != want || want != 9.8 {
		t.Fatalf("windowed p99 = %v, want the unstalled windows' %v (9.8)", s.P99, want)
	}
	if plain := summarize(v).P99; plain != 50 {
		t.Fatalf("plain p99 = %v: the stall must dominate it, or the test proves nothing", plain)
	}
	if short := latencySummary(v[:tailWindow]); short.P99 != summarize(v[:tailWindow]).P99 {
		t.Fatal("under two windows the plain p99 applies")
	}
}

// twoLoopScenario is a hand-built scenario: two realizations of one
// writer, three reports each, so times and indices are easy to check.
func twoLoopScenario() *scenario {
	epc := rfid.EPC{1}
	rep := func(t time.Duration) rfid.Report { return rfid.Report{Time: t, EPC: epc, AntennaID: 1} }
	sc := &scenario{writers: []string{epc.String()}, sweep: 25 * time.Millisecond}
	for _, last := range []time.Duration{200 * time.Millisecond, 400 * time.Millisecond} {
		r := realization{
			reports: []rfid.Report{rep(0), rep(last / 2), rep(last)},
			start:   sc.cycle, period: last + loopPause, first: sc.cycleReports,
		}
		sc.reals = append(sc.reals, r)
		sc.cycle += r.period
		sc.cycleReports += len(r.reports)
	}
	return sc
}

func TestLoopedStreamAndDueTimes(t *testing.T) {
	sc := twoLoopScenario()
	// Loop starts: 0, 1s (200ms+800ms), 2.2s (cycle), 3.2s, ...
	want := []time.Duration{
		0, 100 * time.Millisecond, 200 * time.Millisecond,
		time.Second, 1200 * time.Millisecond, 1400 * time.Millisecond,
		2200 * time.Millisecond, 2300 * time.Millisecond, 2400 * time.Millisecond,
		3200 * time.Millisecond,
	}
	st := sc.stream()
	for i, w := range want {
		if got := sc.at(i).Time; got != w {
			t.Fatalf("at(%d) = %v, want %v", i, got, w)
		}
		if got := st.next().Time; got != w {
			t.Fatalf("stream report %d = %v, want %v", i, got, w)
		}
		// At 20x real time report i is due at its stream time / 20.
		if got := sc.due(i, 20); got != w/20 {
			t.Fatalf("due(%d) = %v, want %v", i, got, w/20)
		}
	}
	for n, want := range map[int]int{0: 0, 2: 0, 3: 1, 5: 1, 6: 2, 9: 3, 12: 4} {
		if got := sc.loopsIn(n); got != want {
			t.Fatalf("loopsIn(%d) = %d, want %d", n, got, want)
		}
	}
	for _, c := range []struct {
		t     time.Duration
		loop  int
		local time.Duration
	}{
		{150 * time.Millisecond, 0, 150 * time.Millisecond},
		{999 * time.Millisecond, 0, 999 * time.Millisecond},
		{1300 * time.Millisecond, 1, 300 * time.Millisecond},
		{2250 * time.Millisecond, 2, 50 * time.Millisecond},
	} {
		if loop, local := sc.locate(c.t); loop != c.loop || local != c.local {
			t.Fatalf("locate(%v) = loop %d at %v, want loop %d at %v", c.t, loop, local, c.loop, c.local)
		}
	}
}

func TestLatencyIsTimedFromTheTriggerReportsDueTime(t *testing.T) {
	sc := twoLoopScenario()
	tag := sc.writers[0]
	start := time.Unix(100, 0)
	ref := map[pointKey]refPoint{
		{tag, 0}:                      {trigger: 2}, // emitted on report 2 (200ms)
		{tag, 100 * time.Millisecond}: {trigger: 3}, // emitted on report 3 (1s)
		{tag, 200 * time.Millisecond}: {trigger: 5}, // on the last report sent
		{tag, time.Second}:            {trigger: -1},
	}
	p := &sessionRun{paced: paced{start: start, sent: 6}}
	p.sub.points = []recvPoint{
		{tag: tag, t: 0, at: start.Add(52 * time.Millisecond)},
		{tag: tag, t: 100 * time.Millisecond, at: start.Add(63 * time.Millisecond)},
		{tag: tag, t: 200 * time.Millisecond, at: start.Add(time.Minute)}, // only the drain releases its trigger
		{tag: tag, t: time.Second, at: start.Add(time.Minute)},            // emitted by the drain
	}
	// Report 2 (200ms) leaves the reorder buffer when report 3 (1s, the
	// first 25ms or more later) arrives, due at 50ms at 20x; report 3
	// when report 4 (1.2s) does, due at 60ms.
	got := p.latencies(sc, ref, 20)
	if len(got) != 2 || math.Abs(got[0]-2) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Fatalf("latencies = %v, want [2 3] ms", got)
	}
	if j, ok := sc.release(0, 6); !ok || j != 1 {
		t.Fatalf("release(0) = %d, %v; want report 1 (100ms)", j, ok)
	}
}

func TestCompareStreamIsASetComparison(t *testing.T) {
	ref := map[pointKey]refPoint{{"a", 1}: {x: 1}, {"a", 2}: {x: 2}, {"b", 1}: {x: 3}}
	inOrder := []recvPoint{{tag: "b", t: 1, x: 3}, {tag: "a", t: 2, x: 2}, {tag: "a", t: 1, x: 1}}
	if msgs, bad := compareStream(ref, inOrder); len(msgs) != 0 || len(bad) != 0 {
		t.Fatalf("reordered delivery flagged: %v %v", msgs, bad)
	}
	wrong := []recvPoint{{tag: "a", t: 1, x: 1}, {tag: "a", t: 1, x: 1}, {tag: "a", t: 2, x: 9}, {tag: "c", t: 1}}
	msgs, bad := compareStream(ref, wrong)
	if len(msgs) != 4 || !bad["a"] || !bad["b"] || !bad["c"] {
		t.Fatalf("want extra, duplicate, moved and missing points over writers a, b, c; got %v %v", msgs, bad)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	root := tr.add(span{Name: "e2e", Parent: -1, Cost: 1000, Allocs: 40})
	sess := tr.add(span{Name: "session", Parent: root, Cost: 600, Allocs: 25})
	tr.add(span{Name: "generator", Parent: root, Cost: 100, Allocs: 5})
	tr.add(span{Name: "engine", Parent: sess, Cost: 450, Allocs: 20})
	tr.add(span{Name: "wal_append", Parent: sess, Cost: 50})
	if ns, allocs := tr.self(root); ns != 300 || allocs != 10 {
		t.Fatalf("e2e self = %d ns, %d allocs; want 1000-600-100 = 300, 40-25-5 = 10", ns, allocs)
	}
	if ns, allocs := tr.self(sess); ns != 100 || allocs != 5 {
		t.Fatalf("session self = %d ns, %d allocs; want 600-450-50 = 100, 25-20 = 5", ns, allocs)
	}
	// A rung closed with done carries its measured cost and allocations.
	id := tr.rung("encode", root)
	tr.done(id, cost{cpu: 70, allocs: 3}, 1)
	if ns, allocs := tr.self(root); ns != 230 || allocs != 7 {
		t.Fatalf("e2e self after encode = %d ns, %d allocs; want 230, 7", ns, allocs)
	}
}

func TestLedgerLayersAndRemainderAddUpToTheTotal(t *testing.T) {
	l := newLedger(100, layerCost{ns: 7000, allocs: 30}, nil)
	for _, ns := range []float64{5200, 5000, 4800} {
		l.add(totalRung, layerCost{ns: ns, allocs: 20})
	}
	costs := map[string][]float64{"decode": {50, 70, 60}, "engine_step": {3000, 2800, 2900}, "pump": {400, 500, 450}}
	for name, ns := range costs {
		for _, v := range ns {
			l.add(name, layerCost{ns: v, allocs: 1})
		}
	}
	l.settle()
	if got := l.layers["engine_step"].ns; got != 2900 {
		t.Fatalf("engine_step = %v, want the median round 2900", got)
	}
	if _, ok := l.layers[totalRung]; ok {
		t.Fatal("the total is not a layer")
	}
	if got := l.layers["remainder"]; got.ns != 5000-60-2900-450 || got.allocs != 17 {
		t.Fatalf("remainder = %+v, want ns 1590, allocs 17", got)
	}
	var ns, share float64
	m := l.metrics()
	for _, name := range ledgerLayers {
		ns += l.layers[name].ns
		share += m[name+".share"].Value
	}
	if ns != 5000 || math.Abs(share-1) > 1e-12 {
		t.Fatalf("layers add up to %v ns (share %v), want the total's median round 5000 (1)", ns, share)
	}
	if m["pump.self_ns_per_report"].Value != 450 || m["ledger.cpu_us_per_report"].Value != 5 || m["e2e.cpu_us_per_report"].Value != 7 {
		t.Fatalf("metric names: %+v", m)
	}
}

func TestClassify(t *testing.T) {
	const warmup = 4
	cases := []struct {
		name            string
		started0        bool
		buf0            int
		started1        bool
		buf1, positions int
		err             error
		class           callClass
		acquired        bool
	}{
		{"merge while tracking", true, 0, true, 0, 0, nil, classMerge, false},
		{"step", true, 0, true, 0, 1, nil, classStep, false},
		{"step that loses track", true, 0, false, 0, 0, nil, classStep, false},
		{"merge while warming up", false, 1, false, 1, 0, nil, classMerge, false},
		{"warmup sample below the threshold", false, 1, false, 2, 0, nil, classMerge, false},
		{"failed acquisition attempt", false, 3, false, 4, 0, nil, classAcquire, false},
		{"acquisition", false, 3, true, 0, 4, nil, classAcquire, true},
		{"acquisition that kills the tag", false, 3, false, 3, 0, errors.New("dead"), classAcquire, false},
	}
	for _, c := range cases {
		class, acquired := classify(c.started0, c.buf0, c.started1, c.buf1, c.positions, warmup, c.err)
		if class != c.class || acquired != c.acquired {
			t.Errorf("%s: got %s/%v, want %s/%v", c.name, classNames[class], acquired, classNames[c.class], c.acquired)
		}
	}
}

func TestStageMeans(t *testing.T) {
	scrape := func(sum, count float64) string {
		var b bytes.Buffer
		for _, st := range []string{"ingest", "reorder", "wal_append", "engine_offer", "emit", "write"} {
			b.WriteString(`rfidrawd_stage_seconds_sum{stage="` + st + `"} `)
			b.WriteString(formatFloat(sum) + "\n")
			b.WriteString(`rfidrawd_stage_seconds_count{stage="` + st + `"} `)
			b.WriteString(formatFloat(count) + "\n")
		}
		return b.String()
	}
	before, err := parseStageTotals(scrape(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseStageTotals(scrape(1.5, 200))
	if err != nil {
		t.Fatal(err)
	}
	if got := stageMeansUS(before, after)["emit"]; math.Abs(got-5000) > 1e-6 {
		t.Fatalf("emit mean = %v µs, want 0.5 s over 100 reports = 5000 µs", got)
	}
	if _, err := parseStageTotals("rfidrawd_stage_seconds_sum{stage=\"ingest\"} 1\n"); err == nil {
		t.Fatal("a scrape missing stages must fail")
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestNDJSONStreamDecodes(t *testing.T) {
	var b bytes.Buffer
	for _, ev := range []server.Event{{Type: "point", Tag: "ab", T: 5, X: 1.5, Z: 2}, {Type: "end"}} {
		line, err := ev.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	next := eventDecoder(&b)
	ev, err := next()
	if err != nil || ev.Type != "point" || ev.Tag != "ab" || ev.T != 5 || ev.X != 1.5 || ev.Z != 2 {
		t.Fatalf("first event = %+v, %v", ev, err)
	}
	if ev, err = next(); err != nil || ev.Type != "end" {
		t.Fatalf("second event = %+v, %v", ev, err)
	}
	if _, err = next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the program
// in step: each mode prints exactly the metrics the file declares.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside perfbench:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(mode string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		t.Helper()
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", mode, len(declared), len(printed))
		}
		for _, d := range declared {
			if m, ok := printed[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s (%s) declared, printed as %+v", mode, d.Name, d.Unit, m)
			}
		}
	}
	check("--trace 0", b.EndToEnd, endToEnd(layerCost{}, 1, setupStats{}))
	l := newLedger(1, layerCost{}, map[string]float64{})
	l.settle()
	traced := l.metrics()
	for name, m := range wallClock(summary{}) {
		traced[name] = m
	}
	check("--trace 1", b.PerLayer, traced)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not the program's", w.Name)
		}
	}
}
