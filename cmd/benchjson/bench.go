package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// File is one BENCH_<date>.json: a snapshot of every benchmark's cost on
// one machine, the unit of the repository's performance trajectory.
type File struct {
	Schema int    `json:"schema"`
	Date   string `json:"date"`
	Go     string `json:"go"`
	// CPU is the benchmark run's `cpu:` header line. ns/op is only
	// comparable within one machine class, so Compare downgrades the
	// gate to informational when baseline and current CPUs differ.
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's summary. For -count repetitions the
// repetition with the lowest ns/op wins (see the package comment).
type Benchmark struct {
	// Name is the benchmark name with the -<GOMAXPROCS> suffix stripped.
	Name string `json:"name"`
	// N is the iteration count of the kept repetition.
	N int64 `json:"n"`
	// NsPerOp is the kept repetition's nanoseconds per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp mirrors -benchmem / b.ReportAllocs output. It is a
	// pointer so a genuinely allocation-free benchmark (0 allocs/op) is
	// distinguishable from a run recorded without allocation data — the
	// allocation gate must fail a 0→N growth, not call it missing.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// BytesPerOp mirrors -benchmem output; 0 when absent.
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	// Metrics holds every custom b.ReportMetric unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches "BenchmarkName-8   3   12345 ns/op   4 extra/unit ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// procSuffix is the trailing -<GOMAXPROCS> go test appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// NormalizeName strips the -<GOMAXPROCS> suffix from a benchmark name so
// results from machines with different core counts compare by identity.
func NormalizeName(name string) string {
	return procSuffix.ReplaceAllString(name, "")
}

// Parse reads `go test -bench` text output and builds the JSON file
// structure, collapsing -count repetitions to the lowest-ns/op one.
func Parse(r io.Reader, date string) (*File, error) {
	best := map[string]*Benchmark{}
	var order []string
	cpu := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b, err := parseLine(m)
		if err != nil {
			return nil, err
		}
		prev, ok := best[b.Name]
		if !ok {
			best[b.Name] = b
			order = append(order, b.Name)
			continue
		}
		if b.NsPerOp < prev.NsPerOp {
			best[b.Name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	f := &File{Schema: 1, Date: date, Go: runtime.Version(), CPU: cpu}
	for _, name := range order {
		f.Benchmarks = append(f.Benchmarks, *best[name])
	}
	return f, nil
}

func parseLine(m []string) (*Benchmark, error) {
	n, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("benchmark %s: bad iteration count %q", m[1], m[2])
	}
	b := &Benchmark{Name: NormalizeName(m[1]), N: n}
	fields := strings.Fields(m[3])
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("benchmark %s: odd value/unit fields %q", m[1], m[3])
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("benchmark %s: bad value %q", m[1], fields[i])
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			a := v
			b.AllocsPerOp = &a
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// Compare gates current against baseline: every current benchmark whose
// normalised name contains match (all when match is empty) and exists in
// the baseline is checked for ns/op regression beyond maxRegress
// (negative disables the time gate) and, when maxAllocsRegress > 0, for
// allocs/op growth beyond that fraction. When metric is non-empty it
// names a custom b.ReportMetric unit (e.g. "reports/s") gated as a
// throughput: HIGHER is better, and a fractional drop beyond
// maxMetricRegress fails. The returned report lists every comparison;
// failed reports whether any regressed or whether no benchmark matched
// in both files.
//
// Two situations downgrade the time gate to informational instead of
// failing, because ns/op is not comparable: benchmarks present on only
// one side, and a baseline recorded on a different CPU than the current
// run (the committed baseline seeds a new machine class until CI
// refreshes it on its own hardware). The allocation gate has no CPU
// escape hatch — allocs/op is a property of the code, not the machine —
// but is informational when either side lacks allocation data (e.g. a
// baseline recorded before b.ReportAllocs was added).
// Like ns/op, the throughput gate downgrades to informational across
// CPU classes and when either side lacks the metric.
func Compare(baseline, current *File, match string, maxRegress, maxAllocsRegress float64, metric string, maxMetricRegress float64) (report string, failed bool) {
	sameCPU := baseline.CPU == "" || current.CPU == "" || baseline.CPU == current.CPU
	base := map[string]Benchmark{}
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	var lines []string
	matched := 0
	for _, cur := range current.Benchmarks {
		if match != "" && !strings.Contains(cur.Name, match) {
			continue
		}
		old, ok := base[cur.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("  new       %-60s %12.0f ns/op (no baseline)", cur.Name, cur.NsPerOp))
			continue
		}
		matched++
		delta := (cur.NsPerOp - old.NsPerOp) / old.NsPerOp
		status := "ok"
		if maxRegress >= 0 && delta > maxRegress {
			status = "slower"
			if sameCPU {
				status = "REGRESSED"
				failed = true
			}
		}
		metricTxt := ""
		if metric != "" {
			oldV, okOld := old.Metrics[metric]
			curV, okCur := cur.Metrics[metric]
			switch {
			case !okOld || !okCur:
				metricTxt = fmt.Sprintf(", %s (no gate: missing data)", metric)
			default:
				mdelta := 0.0
				switch {
				case oldV > 0:
					mdelta = (curV - oldV) / oldV
				case curV > 0:
					mdelta = math.Inf(1)
				}
				metricTxt = fmt.Sprintf(", %s %.0f -> %.0f (%+.1f%%)", metric, oldV, curV, mdelta*100)
				if mdelta < -maxMetricRegress {
					status = "slower"
					if sameCPU {
						status = "REGRESSED"
						failed = true
					}
				}
			}
		}
		allocs := ""
		if maxAllocsRegress > 0 {
			switch {
			case old.AllocsPerOp == nil || cur.AllocsPerOp == nil:
				allocs = ", allocs (no gate: missing data)"
			default:
				oldA, curA := *old.AllocsPerOp, *cur.AllocsPerOp
				// From an allocation-free baseline any growth is an
				// unbounded regression.
				adelta := math.Inf(1)
				switch {
				case oldA > 0:
					adelta = (curA - oldA) / oldA
				case curA == 0:
					adelta = 0
				}
				allocs = fmt.Sprintf(", allocs %.0f -> %.0f /op (%+.1f%%)",
					oldA, curA, adelta*100)
				if adelta > maxAllocsRegress {
					status = "REGRESSED"
					failed = true
				}
			}
		}
		lines = append(lines, fmt.Sprintf("  %-9s %-60s %12.0f -> %12.0f ns/op (%+.1f%%)%s%s",
			status, cur.Name, old.NsPerOp, cur.NsPerOp, delta*100, metricTxt, allocs))
	}
	sort.Strings(lines)
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchjson: baseline %s (%s, cpu %q) vs current %s (%s, cpu %q), gate >%.0f%% ns/op, >%.0f%% allocs/op on %q",
		baseline.Date, baseline.Go, baseline.CPU, current.Date, current.Go, current.CPU, maxRegress*100, maxAllocsRegress*100, match)
	if metric != "" {
		fmt.Fprintf(&sb, ", >-%.0f%% %s", maxMetricRegress*100, metric)
	}
	sb.WriteString("\n")
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	if matched == 0 {
		// A gate that checks nothing must not pass: a renamed or deleted
		// benchmark would otherwise switch its gate off silently.
		fmt.Fprintf(&sb, "benchjson: FAIL: no benchmark matched both files for %q — nothing gated\n", match)
		failed = true
	}
	if !sameCPU {
		fmt.Fprintf(&sb, "benchjson: WARNING: baseline CPU %q != current CPU %q — ns/op not comparable, gate informational; refresh the baseline on this hardware\n",
			baseline.CPU, current.CPU)
	}
	return sb.String(), failed
}
