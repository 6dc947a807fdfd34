package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{999, 0},
		{1000, 0},
		{1001, 1},
		{2000, 1},
		{2001, 2},
		{4000, 2},
		{4001, 3},
		{int64(time.Millisecond), 10},
		{int64(time.Second), 20},
		{int64(67 * time.Second), NumBuckets},
		{int64(time.Hour), NumBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every index must respect its bound: value at the bound stays in
	// the bucket, value just past it moves up.
	for i := 0; i < NumBuckets; i++ {
		bound := int64(BucketBound(i) * 1e9)
		if got := bucketIndex(bound); got != i {
			t.Errorf("bucketIndex(bound %d) = %d, want %d", bound, got, i)
		}
		if got := bucketIndex(bound + 1); got != i+1 {
			t.Errorf("bucketIndex(bound+1 %d) = %d, want %d", bound+1, got, i+1)
		}
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	var h Histogram
	h.Observe(500, 0)                     // bucket 0
	h.Observe(1500, 1)                    // bucket 1
	h.Observe(int64(time.Millisecond), 2) // bucket 10
	h.Observe(int64(time.Hour), 3)        // +Inf
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	if snap.Buckets[0] != 1 || snap.Buckets[1] != 2 || snap.Buckets[9] != 2 || snap.Buckets[10] != 3 {
		t.Fatalf("cumulative buckets wrong: %v", snap.Buckets)
	}
	if snap.Buckets[NumBuckets-1] != 3 {
		t.Fatalf("last finite bucket = %d, want 3 (hour sample only in +Inf)", snap.Buckets[NumBuckets-1])
	}
	for i := 1; i < NumBuckets; i++ {
		if snap.Buckets[i] < snap.Buckets[i-1] {
			t.Fatalf("bucket %d not monotone: %d < %d", i, snap.Buckets[i], snap.Buckets[i-1])
		}
	}
	wantSum := (500 + 1500 + float64(time.Millisecond) + float64(time.Hour)) * 1e-9
	if diff := snap.SumSeconds - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %g, want %g", snap.SumSeconds, wantSum)
	}
}

// TestObserveNMatchesRepeatedObserve: one ObserveN(ns, n) leaves the
// snapshot n calls of Observe(ns) leave (buckets, count and sum), and n
// = 0 records nothing.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	for _, ns := range []int64{-5, 0, 999, 1001, 250_000, int64(time.Second), int64(time.Hour)} {
		for _, n := range []int{1, 3, 20, 256} {
			var one, many Histogram
			one.ObserveN(ns, n, 1)
			for i := 0; i < n; i++ {
				many.Observe(ns, 1)
			}
			if got, want := one.Snapshot(), many.Snapshot(); got != want {
				t.Errorf("ObserveN(%d, %d) = %+v, want %+v", ns, n, got, want)
			}
		}
		var h Histogram
		h.ObserveN(ns, 0, 0)
		if got := h.Snapshot(); got != (HistogramSnapshot{}) {
			t.Errorf("ObserveN(%d, 0) recorded %+v", ns, got)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(hint int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i)*1000, hint)
			}
		}(w)
	}
	wg.Wait()
	if snap := h.Snapshot(); snap.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", snap.Count, workers*perWorker)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Millisecond), 0) // bucket 10: (512µs, 1024µs]
	}
	q := h.Snapshot().Quantile(0.99)
	if q < BucketBound(9) || q > BucketBound(10) {
		t.Fatalf("q99 = %g, want within (%g, %g]", q, BucketBound(9), BucketBound(10))
	}
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

// TestObserveZeroAllocs holds the stamps every report pays at zero
// allocations: a clock read and an observation for each pipeline stage,
// a batch's weighted observation of each, then the end-to-end record, as
// BenchmarkObsStamp times them.
func TestObserveZeroAllocs(t *testing.T) {
	var p Pipeline
	stages := Stages()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		t0 := Now()
		for _, st := range stages {
			p.ObserveStage(st, Now()-t0, i)
			p.ObserveStageN(st, Now()-t0, 20, i)
		}
		p.ObserveE2E(Now()-t0, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("observe path allocates %v allocs/op, want 0", allocs)
	}
}

func TestPipelineRender(t *testing.T) {
	var p Pipeline
	p.ObserveStage(StageWALAppend, 5000, 0)
	p.ObserveE2E(int64(2*time.Millisecond), 0)
	var buf bytes.Buffer
	p.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE rfidrawd_stage_seconds histogram",
		`rfidrawd_stage_seconds_bucket{stage="wal_append",le="+Inf"} 1`,
		`rfidrawd_stage_seconds_count{stage="ingest"} 0`,
		"# TYPE rfidrawd_report_latency_seconds histogram",
		`rfidrawd_report_latency_seconds_bucket{le="+Inf"} 1`,
		"rfidrawd_report_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\noutput:\n%s", want, out)
		}
	}
}

func TestSpanRingBounds(t *testing.T) {
	var r SpanRing
	// Below capacity the ring holds what was added, in order, and no
	// more storage than that.
	for i := 0; i < 3; i++ {
		r.Add(Span{Seq: uint64(i)})
	}
	if got := r.Snapshot(); len(got) != 3 || got[0].Seq != 0 || got[2].Seq != 2 {
		t.Fatalf("partial ring = %+v", got)
	}
	if c := cap(r.ring.items); c >= SpanCapacity {
		t.Fatalf("3 spans hold %d slots", c)
	}
	for i := 3; i < SpanCapacity+10; i++ {
		r.Add(Span{Seq: uint64(i)})
	}
	spans := r.Snapshot()
	if len(spans) != SpanCapacity {
		t.Fatalf("retained %d spans, want %d", len(spans), SpanCapacity)
	}
	if spans[0].Seq != 10 || spans[len(spans)-1].Seq != SpanCapacity+9 {
		t.Fatalf("ring order wrong: first=%d last=%d", spans[0].Seq, spans[len(spans)-1].Seq)
	}
	if r.Total() != SpanCapacity+10 {
		t.Fatalf("total = %d, want %d", r.Total(), SpanCapacity+10)
	}
}

func TestTimelineBounds(t *testing.T) {
	var tl Timeline
	if _, ok := tl.Last(); ok {
		t.Fatal("empty timeline reported a last event")
	}
	var one Timeline
	one.Record(EventRecover, "only")
	if last, ok := one.Last(); !ok || last.Detail != "only" || len(one.Snapshot()) != 1 {
		t.Fatalf("one-event timeline: last %+v, snapshot %+v", last, one.Snapshot())
	}
	if c := cap(one.ring.items); c >= TimelineCapacity {
		t.Fatalf("one event holds %d slots", c)
	}
	for i := 0; i < TimelineCapacity+5; i++ {
		tl.Record(EventCreate, fmt.Sprintf("n=%d", i))
	}
	evs := tl.Snapshot()
	if len(evs) != TimelineCapacity {
		t.Fatalf("retained %d events, want %d", len(evs), TimelineCapacity)
	}
	if evs[0].Detail != "n=5" {
		t.Fatalf("oldest retained = %q, want n=5", evs[0].Detail)
	}
	last, ok := tl.Last()
	if !ok || last.Detail != fmt.Sprintf("n=%d", TimelineCapacity+4) {
		t.Fatalf("last = %+v ok=%v", last, ok)
	}
	if tl.Total() != TimelineCapacity+5 {
		t.Fatalf("total = %d", tl.Total())
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range Stages() {
		name := st.String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has bad name %q", st, name)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage should be unknown")
	}
}

func TestBuildInfo(t *testing.T) {
	if BuildVersion() == "" {
		t.Fatal("empty build version")
	}
	if !strings.HasPrefix(GoVersion(), "go") {
		t.Fatalf("odd go version %q", GoVersion())
	}
	if StartTime.IsZero() {
		t.Fatal("zero start time")
	}
}
