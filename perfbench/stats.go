package main

import (
	"math"
	"sort"
)

// summary is a latency distribution in milliseconds, reported with the
// number of samples it rests on.
type summary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// quantile is the nearest-rank q-quantile of an ascending slice: the
// smallest value with at least q·n values at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	out := summary{Count: len(s)}
	if len(s) > 0 {
		out.P50, out.P99, out.Max = quantile(s, 0.50), quantile(s, 0.99), s[len(s)-1]
	}
	return out
}

// tailWindow is how many consecutive samples one p99 window holds: the
// fewest that leave ten beyond the percentile.
const tailWindow = 1000

// latencySummary summarizes latency samples in the order they were
// taken. Its p99 is the median over consecutive tailWindow-sample
// windows (the last absorbing the remainder) of each window's p99: a
// host stall that delays one stretch of points moves one window, not
// the statistic. Fewer than two windows fall back to the plain p99.
func latencySummary(v []float64) summary {
	out := summarize(v)
	windows := len(v) / tailWindow
	if windows < 2 {
		return out
	}
	p99s := make([]float64, windows)
	for w := range p99s {
		end := (w + 1) * tailWindow
		if w == windows-1 {
			end = len(v)
		}
		p99s[w] = summarize(v[w*tailWindow : end]).P99
	}
	out.P99 = median(p99s)
	return out
}

// tailSupported reports whether the p99 has at least ten samples beyond
// it, the least a percentile is reported on.
func (s summary) tailSupported() bool { return s.Count >= 1000 }

// median is the middle value (the mean of the middle two for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
