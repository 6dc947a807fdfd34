// Command benchjson turns `go test -bench` output into the repository's
// BENCH_<date>.json trajectory format and gates benchmark regressions
// against a committed baseline.
//
// Convert (stdin or -in) to JSON (stdout or -out):
//
//	go test -run xxx -bench . -benchtime 3x -count 3 . | benchjson -out BENCH_2026-07-28.json
//
// Compare a fresh run against the committed baseline, failing (exit 1)
// when any matching benchmark's ns/op regressed by more than -max-regress,
// or when -bench matches no benchmark present in both files:
//
//	benchjson -compare BENCH_baseline.json -bench 'BenchmarkEngineMultiTag/tags=8' -max-regress 0.20 BENCH_2026-07-28.json
//
// Gate a custom throughput metric (higher is better; -metric names the
// b.ReportMetric unit, -max-metric-regress the allowed fractional DROP):
//
//	benchjson -compare BENCH_baseline.json -bench BenchmarkIngestToEmit -max-regress -1 -metric reports/s -max-metric-regress 0.25 BENCH_2026-07-28.json
//
// Benchmark names are normalised by stripping the trailing -<GOMAXPROCS>
// suffix so files from machines with different core counts line up; runs
// repeated with -count are collapsed to the repetition with the best
// (lowest) ns/op, the usual choice for regression gating because it is
// the least noisy summary of a benchmark's attainable speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	var (
		in         = flag.String("in", "", "benchmark text input (default stdin)")
		out        = flag.String("out", "", "JSON output path (default stdout)")
		date       = flag.String("date", "", "date stamp for the JSON (default today, UTC)")
		compare    = flag.String("compare", "", "baseline JSON: compare mode instead of convert mode")
		benchMatch = flag.String("bench", "", "compare mode: substring of the benchmarks to gate (default all)")
		maxRegress = flag.Float64("max-regress", 0.20, "compare mode: allowed fractional ns/op regression (negative disables)")
		maxAllocs  = flag.Float64("max-allocs-regress", 0, "compare mode: allowed fractional allocs/op growth (0 disables)")
		metric     = flag.String("metric", "", "compare mode: custom metric unit to gate as a throughput (higher is better; empty disables)")
		maxMetric  = flag.Float64("max-metric-regress", 0.20, "compare mode: allowed fractional -metric drop")
	)
	flag.Parse()
	if err := run(*in, *out, *date, *compare, *benchMatch, *maxRegress, *maxAllocs, *metric, *maxMetric, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in, out, date, compare, benchMatch string, maxRegress, maxAllocs float64, metric string, maxMetric float64, args []string) error {
	if compare != "" {
		if len(args) != 1 {
			return fmt.Errorf("compare mode wants exactly one current JSON argument, got %d", len(args))
		}
		baseline, err := readFile(compare)
		if err != nil {
			return err
		}
		current, err := readFile(args[0])
		if err != nil {
			return err
		}
		report, failed := Compare(baseline, current, benchMatch, maxRegress, maxAllocs, metric, maxMetric)
		fmt.Print(report)
		if failed {
			return fmt.Errorf("benchmark gate failed: a regression beyond it (ns/op >%.0f%%, allocs/op >%.0f%%, %s >-%.0f%%) or no benchmark matched", maxRegress*100, maxAllocs*100, metric, maxMetric*100)
		}
		return nil
	}

	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if date == "" {
		date = time.Now().UTC().Format("2006-01-02")
	}
	file, err := Parse(r, date)
	if err != nil {
		return err
	}
	if len(file.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
