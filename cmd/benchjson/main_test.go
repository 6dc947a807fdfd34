package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: rfidraw
cpu: Test CPU
BenchmarkEngineMultiTag/tags=8/shards=1-8         	       3	 120000000 ns/op	        66.67 tag-traces/s
BenchmarkEngineMultiTag/tags=8/shards=1-8         	       3	 110000000 ns/op	        72.73 tag-traces/s
BenchmarkEngineMultiTag/tags=8/shards=1-8         	       3	 130000000 ns/op	        61.54 tag-traces/s
BenchmarkLocalizeSingleSample-8                   	     100	   9000000 ns/op	     512 B/op	       4 allocs/op
PASS
ok  	rfidraw	12.345s
`

func TestParseCollapsesRepetitionsToBest(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput), "2026-07-28")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(f.Benchmarks))
	}
	multi := f.Benchmarks[0]
	if multi.Name != "BenchmarkEngineMultiTag/tags=8/shards=1" {
		t.Fatalf("name = %q (procs suffix should be stripped)", multi.Name)
	}
	if multi.NsPerOp != 110000000 {
		t.Fatalf("ns/op = %v, want the best repetition 1.1e8", multi.NsPerOp)
	}
	if got := multi.Metrics["tag-traces/s"]; got != 72.73 {
		t.Fatalf("custom metric = %v, want the best repetition's 72.73", got)
	}
	loc := f.Benchmarks[1]
	if loc.BytesPerOp != 512 || loc.AllocsPerOp == nil || *loc.AllocsPerOp != 4 {
		t.Fatalf("benchmem fields = %v B/op, %v allocs/op", loc.BytesPerOp, loc.AllocsPerOp)
	}
	if f.Benchmarks[0].AllocsPerOp != nil {
		t.Fatal("benchmark without allocation data must record nil, not 0")
	}
	if f.Schema != 1 || f.Date != "2026-07-28" {
		t.Fatalf("file header: %+v", f)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-8  3  nope ns/op\n"), "d"); err == nil {
		t.Fatal("want error for unparsable value")
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":            "BenchmarkFoo",
		"BenchmarkFoo/tags=8-64":    "BenchmarkFoo/tags=8",
		"BenchmarkFoo/shards=1":     "BenchmarkFoo/shards=1",
		"BenchmarkFoo/tags=8/x-128": "BenchmarkFoo/tags=8/x",
	} {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func mkFile(ns float64) *File {
	return &File{
		Schema: 1, Date: "2026-07-28", Go: "go1.24.0",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkEngineMultiTag/tags=8/shards=1", N: 3, NsPerOp: ns},
			{Name: "BenchmarkOther", N: 10, NsPerOp: 50},
		},
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	report, failed := Compare(mkFile(100), mkFile(115), "EngineMultiTag/tags=8", 0.20, 0, "", 0)
	if failed {
		t.Fatalf("15%% should pass a 20%% gate:\n%s", report)
	}
	if !strings.Contains(report, "ok") || !strings.Contains(report, "+15.0%") {
		t.Fatalf("report missing comparison:\n%s", report)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	report, failed := Compare(mkFile(100), mkFile(130), "EngineMultiTag/tags=8", 0.20, 0, "", 0)
	if !failed {
		t.Fatalf("30%% regression should fail a 20%% gate:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Fatalf("report missing REGRESSED marker:\n%s", report)
	}
}

func TestCompareGatesOnlyMatchingBenchmarks(t *testing.T) {
	cur := mkFile(100)
	cur.Benchmarks[1].NsPerOp = 500 // 10x regression on the unmatched one
	if report, failed := Compare(mkFile(100), cur, "EngineMultiTag/tags=8", 0.20, 0, "", 0); failed {
		t.Fatalf("unmatched benchmark must not fail the gate:\n%s", report)
	}
	if _, failed := Compare(mkFile(100), cur, "", 0.20, 0, "", 0); !failed {
		t.Fatal("empty match should gate every benchmark")
	}
}

func TestCompareNoOverlapFails(t *testing.T) {
	other := &File{Benchmarks: []Benchmark{{Name: "BenchmarkElsewhere", NsPerOp: 1}}}
	report, failed := Compare(mkFile(100), other, "EngineMultiTag", 0.20, 0, "", 0)
	if !failed {
		t.Fatalf("a gate that matches no benchmark must fail:\n%s", report)
	}
	if !strings.Contains(report, "no benchmark matched") {
		t.Fatalf("report missing the no-overlap failure:\n%s", report)
	}
}

func mkAllocFile(ns float64, allocs ...float64) *File {
	b := Benchmark{Name: "BenchmarkEngineStreaming/shards=1", N: 3, NsPerOp: ns}
	if len(allocs) > 0 {
		b.AllocsPerOp = &allocs[0]
	}
	return &File{
		Schema: 1, Date: "2026-07-28", Go: "go1.24.0", CPU: "Same CPU",
		Benchmarks: []Benchmark{b},
	}
}

func TestCompareAllocsGate(t *testing.T) {
	// 10% allocation growth passes a 20% gate; 50% fails it even when
	// ns/op is fine.
	if report, failed := Compare(mkAllocFile(100, 1000), mkAllocFile(100, 1100), "EngineStreaming", -1, 0.20, "", 0); failed {
		t.Fatalf("10%% allocs growth should pass a 20%% gate:\n%s", report)
	}
	report, failed := Compare(mkAllocFile(100, 1000), mkAllocFile(100, 1500), "EngineStreaming", -1, 0.20, "", 0)
	if !failed {
		t.Fatalf("50%% allocs growth should fail a 20%% gate:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSED") || !strings.Contains(report, "allocs 1000 -> 1500") {
		t.Fatalf("report missing allocation regression detail:\n%s", report)
	}
	// A disabled time gate must not fail on ns/op regressions.
	if report, failed := Compare(mkAllocFile(100, 1000), mkAllocFile(1000, 1000), "EngineStreaming", -1, 0.20, "", 0); failed {
		t.Fatalf("disabled ns/op gate must not fail:\n%s", report)
	}
	// The allocation gate has no cross-CPU escape: allocs are a property
	// of the code.
	cur := mkAllocFile(100, 1500)
	cur.CPU = "Other CPU"
	if _, failed := Compare(mkAllocFile(100, 1000), cur, "EngineStreaming", -1, 0.20, "", 0); !failed {
		t.Fatal("cross-CPU allocation regression must still fail")
	}
}

func TestCompareAllocsGateMissingDataIsInformational(t *testing.T) {
	baseline := mkAllocFile(100) // recorded before ReportAllocs existed
	report, failed := Compare(baseline, mkAllocFile(100, 900), "EngineStreaming", -1, 0.20, "", 0)
	if failed {
		t.Fatalf("missing baseline allocation data must not fail:\n%s", report)
	}
	if !strings.Contains(report, "no gate: missing data") {
		t.Fatalf("report missing the no-data note:\n%s", report)
	}
	// Gate off entirely: no allocation text at all.
	report, _ = Compare(mkAllocFile(100, 1000), mkAllocFile(100, 1500), "EngineStreaming", -1, 0, "", 0)
	if strings.Contains(report, "allocs 1000") {
		t.Fatalf("disabled allocs gate should not report allocations:\n%s", report)
	}
}

func TestCompareAllocsGateZeroBaselineIsReal(t *testing.T) {
	// A genuinely allocation-free baseline is data, not absence: any
	// growth from 0 is an unbounded regression and must fail the gate.
	report, failed := Compare(mkAllocFile(100, 0), mkAllocFile(100, 20000), "EngineStreaming", -1, 0.20, "", 0)
	if !failed {
		t.Fatalf("0 -> 20000 allocs/op must fail the gate:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Fatalf("report missing REGRESSED marker:\n%s", report)
	}
	if _, failed := Compare(mkAllocFile(100, 0), mkAllocFile(100, 0), "EngineStreaming", -1, 0.20, "", 0); failed {
		t.Fatal("0 -> 0 allocs/op must pass")
	}
}

func mkMetricFile(ns float64, metrics map[string]float64) *File {
	return &File{
		Schema: 1, Date: "2026-08-08", Go: "go1.24.0", CPU: "Same CPU",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkIngestToEmit/encoding=binary/subs=512", N: 3, NsPerOp: ns, Metrics: metrics},
		},
	}
}

func TestCompareMetricGate(t *testing.T) {
	base := mkMetricFile(100, map[string]float64{"reports/s": 10000})
	// A 10% throughput drop passes a 25% gate.
	if report, failed := Compare(base, mkMetricFile(100, map[string]float64{"reports/s": 9000}), "IngestToEmit", -1, 0, "reports/s", 0.25); failed {
		t.Fatalf("10%% throughput drop should pass a 25%% gate:\n%s", report)
	}
	// A 50% drop fails it — lower is the regression direction.
	report, failed := Compare(base, mkMetricFile(100, map[string]float64{"reports/s": 5000}), "IngestToEmit", -1, 0, "reports/s", 0.25)
	if !failed {
		t.Fatalf("50%% throughput drop should fail a 25%% gate:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSED") || !strings.Contains(report, "reports/s 10000 -> 5000") {
		t.Fatalf("report missing throughput regression detail:\n%s", report)
	}
	// A throughput GAIN must never fail, however large.
	if report, failed := Compare(base, mkMetricFile(100, map[string]float64{"reports/s": 40000}), "IngestToEmit", -1, 0, "reports/s", 0.25); failed {
		t.Fatalf("throughput gain must pass:\n%s", report)
	}
	// Missing metric on either side downgrades to informational.
	report, failed = Compare(base, mkMetricFile(100, nil), "IngestToEmit", -1, 0, "reports/s", 0.25)
	if failed {
		t.Fatalf("missing metric data must not fail:\n%s", report)
	}
	if !strings.Contains(report, "no gate: missing data") {
		t.Fatalf("report missing the no-data note:\n%s", report)
	}
	// Cross-CPU throughput, like ns/op, is not comparable: informational.
	cur := mkMetricFile(100, map[string]float64{"reports/s": 5000})
	cur.CPU = "Other CPU"
	if report, failed := Compare(base, cur, "IngestToEmit", -1, 0, "reports/s", 0.25); failed {
		t.Fatalf("cross-CPU throughput drop must not fail the gate:\n%s", report)
	}
}

func TestParseRecordsCPU(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput), "d")
	if err != nil {
		t.Fatal(err)
	}
	if f.CPU != "Test CPU" {
		t.Fatalf("cpu = %q, want %q", f.CPU, "Test CPU")
	}
}

func TestCompareDifferentCPUIsInformational(t *testing.T) {
	baseline := mkFile(100)
	baseline.CPU = "Dev Workstation"
	cur := mkFile(200) // 100% slower — would fail on same hardware
	cur.CPU = "CI Runner"
	report, failed := Compare(baseline, cur, "EngineMultiTag/tags=8", 0.20, 0, "", 0)
	if failed {
		t.Fatalf("cross-CPU comparison must not fail the gate:\n%s", report)
	}
	if !strings.Contains(report, "not comparable") || !strings.Contains(report, "slower") {
		t.Fatalf("report missing cross-CPU downgrade:\n%s", report)
	}
	cur.CPU = baseline.CPU
	if _, failed := Compare(baseline, cur, "EngineMultiTag/tags=8", 0.20, 0, "", 0); !failed {
		t.Fatal("same-CPU regression must fail the gate")
	}
}
