package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
)

// Pipeline holds the daemon-wide stage histograms plus the end-to-end
// report latency histogram. One Pipeline is shared by every session in a
// registry; stampers pass a stripe hint to spread contention.
type Pipeline struct {
	stages [NumStages]Histogram
	e2e    Histogram
	// Burst fan-in accounting: how many ingest bursts the sessions took
	// and how many reports they carried, so the average burst size the
	// gateway achieves under a given load is observable. One atomic add
	// per burst (not per report), so no striping is needed.
	bursts       atomic.Int64
	burstReports atomic.Int64
}

// ObserveBurst records one consumed ingest burst of n reports.
func (p *Pipeline) ObserveBurst(n int) {
	p.bursts.Add(1)
	p.burstReports.Add(int64(n))
}

// BurstSnapshot returns the cumulative burst count and the reports those
// bursts carried.
func (p *Pipeline) BurstSnapshot() (bursts, reports int64) {
	return p.bursts.Load(), p.burstReports.Load()
}

// ObserveStage records one duration for a pipeline stage.
func (p *Pipeline) ObserveStage(st Stage, ns int64, hint int) {
	p.stages[st].Observe(ns, hint)
}

// ObserveStageN records n samples of one duration for a pipeline stage:
// a batch's items that share the interval, stamped once.
func (p *Pipeline) ObserveStageN(st Stage, ns int64, n int, hint int) {
	p.stages[st].ObserveN(ns, n, hint)
}

// ObserveE2E records one decode-to-emit end-to-end latency.
func (p *Pipeline) ObserveE2E(ns int64, hint int) {
	p.e2e.Observe(ns, hint)
}

// StageSnapshot returns the merged snapshot for one stage.
func (p *Pipeline) StageSnapshot(st Stage) HistogramSnapshot {
	return p.stages[st].Snapshot()
}

// E2ESnapshot returns the merged end-to-end snapshot.
func (p *Pipeline) E2ESnapshot() HistogramSnapshot {
	return p.e2e.Snapshot()
}

// boundLabel formats a bucket upper bound the way Prometheus clients
// expect (shortest float that round-trips).
func boundLabel(i int) string {
	return strconv.FormatFloat(BucketBound(i), 'g', -1, 64)
}

// writeHistogram emits one labeled histogram series (buckets, sum,
// count) in exposition format. extraLabel is rendered inside every
// brace pair when non-empty, e.g. `stage="ingest"`.
func writeHistogram(w io.Writer, name, extraLabel string, snap HistogramSnapshot) {
	sep := ""
	if extraLabel != "" {
		sep = ","
	}
	for i := 0; i < NumBuckets; i++ {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, extraLabel, sep, boundLabel(i), snap.Buckets[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, extraLabel, sep, snap.Count)
	if extraLabel == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, snap.SumSeconds)
		fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, extraLabel, snap.SumSeconds)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, extraLabel, snap.Count)
	}
}

// Render writes the pipeline's histogram families in Prometheus text
// exposition format 0.0.4.
func (p *Pipeline) Render(w io.Writer) {
	fmt.Fprintf(w, "# HELP rfidrawd_stage_seconds Per-stage report latency inside the serving pipeline.\n")
	fmt.Fprintf(w, "# TYPE rfidrawd_stage_seconds histogram\n")
	for _, st := range Stages() {
		writeHistogram(w, "rfidrawd_stage_seconds", `stage="`+st.String()+`"`, p.StageSnapshot(st))
	}
	fmt.Fprintf(w, "# HELP rfidrawd_report_latency_seconds End-to-end report latency from ingest decode to trace-point emit.\n")
	fmt.Fprintf(w, "# TYPE rfidrawd_report_latency_seconds histogram\n")
	writeHistogram(w, "rfidrawd_report_latency_seconds", "", p.E2ESnapshot())
	bursts, burstReports := p.BurstSnapshot()
	fmt.Fprintf(w, "# HELP rfidrawd_ingest_bursts_total Ingest bursts (OfferBatch calls) consumed by sessions.\n")
	fmt.Fprintf(w, "# TYPE rfidrawd_ingest_bursts_total counter\n")
	fmt.Fprintf(w, "rfidrawd_ingest_bursts_total %d\n", bursts)
	fmt.Fprintf(w, "# HELP rfidrawd_ingest_burst_reports_total Reports carried inside ingest bursts.\n")
	fmt.Fprintf(w, "# TYPE rfidrawd_ingest_burst_reports_total counter\n")
	fmt.Fprintf(w, "rfidrawd_ingest_burst_reports_total %d\n", burstReports)
}
