package server

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"rfidraw/internal/obs"
)

// Metrics is the server-wide counter set, exposed in Prometheus text
// format on /metrics. All fields are monotonic counters unless noted.
type Metrics struct {
	SessionsCreated   atomic.Int64
	SessionsExpired   atomic.Int64
	SessionsClosed    atomic.Int64
	SessionsActive    atomic.Int64 // gauge
	SubscribersActive atomic.Int64 // gauge
	IngestConns       atomic.Int64
	Reports           atomic.Int64
	ReportsOutOfOrder atomic.Int64
	// ReorderLate counts reports that arrived after their reorder-window
	// slot was already released: the session resequencer delivered them
	// to the engine behind later-stamped reports (a reader's clock skew
	// exceeds RegistryConfig.ReorderWindow).
	ReorderLate   atomic.Int64
	ResyncBytes   atomic.Int64
	Points        atomic.Int64
	Glyphs        atomic.Int64
	EventsDropped atomic.Int64
	Shed          atomic.Int64
	// SearchEvalsRetired accumulates closed sessions' final search-eval
	// counts so rfidrawd_search_evals_total (retired + live sum) stays
	// monotonic when sessions are deleted or expire.
	SearchEvalsRetired atomic.Int64
	// LeaderSwitchesRetired and RetirementsRetired are the same
	// closed-session accumulators for the hypothesis counters.
	LeaderSwitchesRetired atomic.Int64
	RetirementsRetired    atomic.Int64

	// Durability counters. SessionsRecovered counts WAL sessions
	// rehydrated at startup; SessionsRetained (gauge) counts sessions
	// currently parked in the recovered state; Retraces counts WAL
	// re-trace runs; WALFailures counts sessions whose log was abandoned
	// after a write error; WALTornBytes accumulates bytes dropped
	// recovering damaged or torn records.
	SessionsRecovered atomic.Int64
	SessionsRetained  atomic.Int64 // gauge
	Retraces          atomic.Int64
	WALFailures       atomic.Int64
	WALTornBytes      atomic.Int64

	// Admission/control-plane counters. SessionsParked counts sessions
	// parked by the pressure loop or an operator verb (idle-expiry parks
	// are SessionsExpired); SessionsResumed counts parked sessions
	// brought back live; AdmissionRejected counts opens refused by the
	// congestion score (HTTP 429; the flat-cap 503s are in Shed).
	SessionsParked    atomic.Int64
	SessionsResumed   atomic.Int64
	AdmissionRejected atomic.Int64
	// Tiered-multicast counters. TierDowngrades/TierUpgrades count
	// adaptive tier transitions (a downgrade sheds stream weight for a
	// backlogged subscriber instead of dropping its events);
	// TierSubscribers (gauges) count attached subscribers by the tier
	// they are currently served at.
	TierDowngrades  atomic.Int64
	TierUpgrades    atomic.Int64
	TierSubscribers [3]atomic.Int64 // gauge per tier
}

// counterDef drives the text rendering.
type counterDef struct {
	name, help, typ string
	val             func(m *Metrics) int64
}

var counterDefs = []counterDef{
	{"rfidrawd_sessions_created_total", "Sessions created.", "counter", func(m *Metrics) int64 { return m.SessionsCreated.Load() }},
	{"rfidrawd_sessions_expired_total", "Sessions expired by idle GC.", "counter", func(m *Metrics) int64 { return m.SessionsExpired.Load() }},
	{"rfidrawd_sessions_closed_total", "Sessions closed (any reason).", "counter", func(m *Metrics) int64 { return m.SessionsClosed.Load() }},
	{"rfidrawd_sessions_active", "Live sessions.", "gauge", func(m *Metrics) int64 { return m.SessionsActive.Load() }},
	{"rfidrawd_subscribers_active", "Attached stream subscribers.", "gauge", func(m *Metrics) int64 { return m.SubscribersActive.Load() }},
	{"rfidrawd_ingest_connections_total", "Reader connections accepted by the ingest gateway.", "counter", func(m *Metrics) int64 { return m.IngestConns.Load() }},
	{"rfidrawd_reports_total", "Phase reports ingested.", "counter", func(m *Metrics) int64 { return m.Reports.Load() }},
	{"rfidrawd_reports_out_of_order_total", "Reports dropped for regressing their reader's clock.", "counter", func(m *Metrics) int64 { return m.ReportsOutOfOrder.Load() }},
	{"rfidrawd_reorder_late_total", "Reports delivered to the engine after their reorder-window slot was released (reader clock skew beyond the window).", "counter", func(m *Metrics) int64 { return m.ReorderLate.Load() }},
	{"rfidrawd_resync_bytes_total", "Bytes skipped re-locking onto damaged reader streams.", "counter", func(m *Metrics) int64 { return m.ResyncBytes.Load() }},
	{"rfidrawd_points_total", "Trace points emitted to sessions.", "counter", func(m *Metrics) int64 { return m.Points.Load() }},
	{"rfidrawd_glyphs_total", "Glyphs recognized from completed strokes.", "counter", func(m *Metrics) int64 { return m.Glyphs.Load() }},
	{"rfidrawd_events_dropped_total", "Events dropped by the slow-consumer policy.", "counter", func(m *Metrics) int64 { return m.EventsDropped.Load() }},
	{"rfidrawd_shed_total", "Requests shed by admission control (HTTP 503).", "counter", func(m *Metrics) int64 { return m.Shed.Load() }},
	{"rfidrawd_sessions_recovered_total", "Sessions rehydrated from retained WALs at startup.", "counter", func(m *Metrics) int64 { return m.SessionsRecovered.Load() }},
	{"rfidrawd_sessions_retained", "Sessions parked in the recovered state (WAL-only, no engine).", "gauge", func(m *Metrics) int64 { return m.SessionsRetained.Load() }},
	{"rfidrawd_retraces_total", "WAL re-trace runs served.", "counter", func(m *Metrics) int64 { return m.Retraces.Load() }},
	{"rfidrawd_wal_failures_total", "Sessions whose WAL was abandoned after a write error.", "counter", func(m *Metrics) int64 { return m.WALFailures.Load() }},
	{"rfidrawd_wal_torn_bytes_total", "Bytes dropped recovering damaged or torn WAL records.", "counter", func(m *Metrics) int64 { return m.WALTornBytes.Load() }},
	{"rfidrawd_sessions_parked_total", "Sessions parked under pressure or by operator verb.", "counter", func(m *Metrics) int64 { return m.SessionsParked.Load() }},
	{"rfidrawd_sessions_resumed_total", "Parked sessions resumed live.", "counter", func(m *Metrics) int64 { return m.SessionsResumed.Load() }},
	{"rfidrawd_admission_rejected_total", "Session opens refused by the congestion score (HTTP 429).", "counter", func(m *Metrics) int64 { return m.AdmissionRejected.Load() }},
	{"rfidrawd_tier_downgrades_total", "Adaptive tier step-downs taken by backlogged subscribers.", "counter", func(m *Metrics) int64 { return m.TierDowngrades.Load() }},
	{"rfidrawd_tier_upgrades_total", "Adaptive tier step-ups after sustained calm backlog.", "counter", func(m *Metrics) int64 { return m.TierUpgrades.Load() }},
}

// liveSums carries the per-scrape values summed over live sessions by
// the metrics handler (counters also fold in the closed-session retired
// accumulators so they stay monotonic).
type liveSums struct {
	searchEvals    int64
	hypotheses     int64
	leaderSwitches int64
	retirements    int64
	reportsPerSec  float64
	walBytes       int64
	walSegments    int64
	// score is the congestion score refreshed for this scrape, with its
	// per-resource component breakdown.
	score NodeScore
	// pipeline, when non-nil, renders the stage and end-to-end latency
	// histograms.
	pipeline *obs.Pipeline
}

// render writes the metrics in Prometheus text exposition format.
func (m *Metrics) render(w io.Writer, live liveSums) {
	for _, d := range counterDefs {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", d.name, d.help, d.name, d.typ, d.name, d.val(m))
	}
	fmt.Fprintf(w, "# HELP rfidrawd_search_evals_total Vote-surface evaluations spent by live sessions.\n# TYPE rfidrawd_search_evals_total counter\nrfidrawd_search_evals_total %d\n", live.searchEvals)
	fmt.Fprintf(w, "# HELP rfidrawd_hypotheses_active Candidate hypotheses currently advanced by live sessions' multi-streams.\n# TYPE rfidrawd_hypotheses_active gauge\nrfidrawd_hypotheses_active %d\n", live.hypotheses)
	fmt.Fprintf(w, "# HELP rfidrawd_leader_switches_total Leading-hypothesis changes (the over-time candidate disambiguation re-electing).\n# TYPE rfidrawd_leader_switches_total counter\nrfidrawd_leader_switches_total %d\n", live.leaderSwitches)
	fmt.Fprintf(w, "# HELP rfidrawd_hypothesis_retirements_total Hypotheses retired for collapsed vote records.\n# TYPE rfidrawd_hypothesis_retirements_total counter\nrfidrawd_hypothesis_retirements_total %d\n", live.retirements)
	fmt.Fprintf(w, "# HELP rfidrawd_reports_per_second Ingest rate over the last scrape interval.\n# TYPE rfidrawd_reports_per_second gauge\nrfidrawd_reports_per_second %.1f\n", live.reportsPerSec)
	fmt.Fprintf(w, "# HELP rfidrawd_wal_bytes On-disk bytes across all retained session logs.\n# TYPE rfidrawd_wal_bytes gauge\nrfidrawd_wal_bytes %d\n", live.walBytes)
	fmt.Fprintf(w, "# HELP rfidrawd_wal_segments Segment files across all retained session logs.\n# TYPE rfidrawd_wal_segments gauge\nrfidrawd_wal_segments %d\n", live.walSegments)
	fmt.Fprintf(w, "# HELP rfidrawd_congestion_score Node congestion score (max capacity-normalized demand component; admission sheds past the shed threshold).\n# TYPE rfidrawd_congestion_score gauge\nrfidrawd_congestion_score %.4f\n", live.score.Score)
	fmt.Fprintf(w, "# HELP rfidrawd_congestion_component Capacity-normalized demand per resource.\n# TYPE rfidrawd_congestion_component gauge\n")
	c := live.score.Components
	fmt.Fprintf(w, "rfidrawd_congestion_component{resource=\"search_evals\"} %.4f\n", c.SearchEvals)
	fmt.Fprintf(w, "rfidrawd_congestion_component{resource=\"wal_bytes\"} %.4f\n", c.WALBytes)
	fmt.Fprintf(w, "rfidrawd_congestion_component{resource=\"reorder_late\"} %.4f\n", c.ReorderLate)
	fmt.Fprintf(w, "rfidrawd_congestion_component{resource=\"backlog\"} %.4f\n", c.Backlog)
	fmt.Fprintf(w, "rfidrawd_congestion_component{resource=\"session_slots\"} %.4f\n", c.SessionSlots)
	fmt.Fprintf(w, "rfidrawd_congestion_component{resource=\"tier_pressure\"} %.4f\n", c.TierPressure)
	fmt.Fprintf(w, "# HELP rfidrawd_tier_subscribers Attached stream subscribers by the trace tier currently served.\n# TYPE rfidrawd_tier_subscribers gauge\n")
	for t := range m.TierSubscribers {
		fmt.Fprintf(w, "rfidrawd_tier_subscribers{tier=\"%d\"} %d\n", t, m.TierSubscribers[t].Load())
	}
	fmt.Fprintf(w, "# HELP rfidrawd_goroutines Current goroutine count (soak leak gate).\n# TYPE rfidrawd_goroutines gauge\nrfidrawd_goroutines %d\n", runtime.NumGoroutine())
	if live.pipeline != nil {
		live.pipeline.Render(w)
	}
	fmt.Fprintf(w, "# HELP rfidrawd_build_info Build identity; the value is always 1.\n# TYPE rfidrawd_build_info gauge\n")
	fmt.Fprintf(w, "rfidrawd_build_info{version=%q,go_version=%q} 1\n", obs.BuildVersion(), obs.GoVersion())
	fmt.Fprintf(w, "# HELP rfidrawd_process_start_time_seconds Unix time the process started.\n# TYPE rfidrawd_process_start_time_seconds gauge\nrfidrawd_process_start_time_seconds %.3f\n", float64(obs.StartTime.UnixNano())/1e9)
}
