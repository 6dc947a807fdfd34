// Command loadgen drives a running rfidrawd with simulated multi-user
// writing sessions and reports end-to-end latency: for every session it
// creates a daemon session, subscribes to its live stream, replays the
// scenario's two reader report streams through the ingest gateway (looping
// until -duration elapses), and measures sample→trace-point latency — the
// wall-clock delay between when a sweep's closing report was sent and when
// its trace point arrived back on the stream.
//
// The JSON result (stdout or -out) carries p50/p90/p99/max latency,
// event counts and per-session outcomes; the process exits non-zero if
// any session failed or was shed, so CI can gate on it; CI's soak job
// (scripts/soak.sh) runs it.
//
// Usage:
//
//	loadgen -daemon http://127.0.0.1:8090 -sessions 8 -duration 30s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfidraw/internal/corpus"
	"rfidraw/internal/deploy"
	"rfidraw/internal/faultgen"
	"rfidraw/internal/geom"
	"rfidraw/internal/obs"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
	"rfidraw/internal/sim"
)

func main() {
	var (
		daemon   = flag.String("daemon", "http://127.0.0.1:8090", "rfidrawd HTTP API base URL")
		ingest   = flag.String("ingest", "", "ingest gateway address (default: learned from the daemon)")
		sessions = flag.Int("sessions", 8, "concurrent sessions to run")
		tags     = flag.Int("tags", 2, "simultaneous writers per session")
		word     = flag.String("word", "hi", "word the first writer writes")
		seed     = flag.Int64("seed", 1, "scenario seed")
		pace     = flag.Float64("pace", 1, "replay speed (1 = real time)")
		duration = flag.Duration("duration", 30*time.Second, "how long each session streams (scenario loops)")
		retrace  = flag.Bool("retrace", false, "after streaming, POST /retrace twice per session (daemon needs -data-dir) and gate on determinism")
		overload = flag.Bool("overload", false, "overload mode: creates retry on 429 honoring Retry-After (a 429 without one fails the run), sessions the daemon sheds or parks under pressure count as outcomes instead of failures, and parked sessions are left on the daemon for post-run inspection")
		profile  = flag.String("profile", "", "named adversarial scenario profile ("+strings.Join(corpus.ProfileNames(), ", ")+"); sets seed, geometry, propagation and injected reader faults")
		encoding = flag.String("encoding", "ndjson", "stream wire encoding each session subscribes with: ndjson or binary (decoded events are identical)")
		subs     = flag.Int("subscribers", 0, "extra stream subscribers to attach per session (fan-out load; the latency-measuring subscriber is separate)")
		subsTier = flag.String("tier", "mixed", "trace tier the extra subscribers negotiate: 0, 1, 2 or mixed (round-robin across all three)")
		svCheck  = flag.Float64("server-check-ms", 0, "cross-check the daemon's rfidrawd_report_latency_seconds histogram against the client-observed latency: fail if the server-side interpolated p99 exceeds the client p99 by more than this many ms, or if the histogram gained no observations (0 disables)")
		out      = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()
	if err := validateFlags(*daemon, *sessions, *tags, *word, *pace, *duration, *encoding, *subs, *subsTier); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: invalid flags:", err)
		flag.Usage()
		os.Exit(2)
	}
	report, err := run(*daemon, *ingest, *sessions, *tags, *word, *seed, *pace, *duration, *retrace, *profile, *overload, *svCheck, *encoding, *subs, *subsTier)
	if report != nil {
		b, _ := json.MarshalIndent(report, "", "  ")
		b = append(b, '\n')
		if *out != "" {
			if werr := os.WriteFile(*out, b, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", werr)
				os.Exit(1)
			}
		} else {
			os.Stdout.Write(b)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// validateFlags rejects malformed combinations before dialling anything.
func validateFlags(daemon string, sessions, tags int, word string, pace float64, duration time.Duration, encoding string, subscribers int, tier string) error {
	if !strings.HasPrefix(daemon, "http://") && !strings.HasPrefix(daemon, "https://") {
		return fmt.Errorf("-daemon %q must be an http(s) URL", daemon)
	}
	if sessions < 1 {
		return fmt.Errorf("-sessions %d needs at least one session", sessions)
	}
	if tags < 1 || tags > 12 {
		return fmt.Errorf("-tags %d must be 1–12 (the start-grid limit)", tags)
	}
	if strings.TrimSpace(word) == "" {
		return fmt.Errorf("-word must not be empty")
	}
	if pace <= 0 {
		return fmt.Errorf("-pace %v must be positive (paced replay is what latency means)", pace)
	}
	if duration <= 0 {
		return fmt.Errorf("-duration %v must be positive", duration)
	}
	switch encoding {
	case "", "ndjson", "binary":
	default:
		return fmt.Errorf("-encoding %q must be ndjson or binary", encoding)
	}
	if subscribers < 0 {
		return fmt.Errorf("-subscribers %d must not be negative", subscribers)
	}
	switch tier {
	case "0", "1", "2", "mixed":
	default:
		return fmt.Errorf("-tier %q must be 0, 1, 2 or mixed", tier)
	}
	return nil
}

// extraWords is the word cycle writers after the first write.
var extraWords = []string{"go", "hi", "on", "it", "up", "at"}

// loopGap separates scenario repetitions in stream time: long enough for
// the daemon's idle drain and stroke finalization to run between words.
const loopGap = 800 * time.Millisecond

// Report is loadgen's JSON output.
type Report struct {
	Sessions  int     `json:"sessions"`
	Tags      int     `json:"tags_per_session"`
	Pace      float64 `json:"pace"`
	DurationS float64 `json:"duration_s"`
	Profile   string  `json:"profile,omitempty"`
	Encoding  string  `json:"encoding,omitempty"`

	Failed int `json:"failed"`
	Shed   int `json:"shed"`
	// Parked counts sessions the daemon parked under pressure (overload
	// mode); Overload429 the total 429 admission refusals absorbed, and
	// RetryWaitMS the total Retry-After time honored doing so.
	Parked      int     `json:"parked,omitempty"`
	Overload429 int64   `json:"overload_429,omitempty"`
	RetryWaitMS float64 `json:"retry_wait_ms,omitempty"`

	Points int64 `json:"points"`
	Glyphs int64 `json:"glyphs"`
	Drops  int64 `json:"drops"`

	// ExtraSubscribers is -subscribers: stream consumers attached per
	// session beyond the latency-measuring one, negotiating
	// SubscriberTier (-tier; "mixed" round-robins 0/1/2). The tierN_*
	// fields tally those consumers' streams by NEGOTIATED tier —
	// tier0_drops stays 0 when the cheapest tier never loses an event —
	// and Downgrades counts the in-stream adaptive step-down
	// announcements they observed. Always present (not omitempty) so the
	// soak gate can read zeros.
	ExtraSubscribers int    `json:"extra_subscribers"`
	SubscriberTier   string `json:"subscriber_tier,omitempty"`
	Tier0Points      int64  `json:"tier0_points"`
	Tier1Points      int64  `json:"tier1_points"`
	Tier2Points      int64  `json:"tier2_points"`
	Tier0Drops       int64  `json:"tier0_drops"`
	Tier1Drops       int64  `json:"tier1_drops"`
	Tier2Drops       int64  `json:"tier2_drops"`
	Downgrades       int64  `json:"downgrades"`

	// Reports is the total reader reports replayed into the ingest
	// gateway across every session; ReportsPerSec is that volume over the
	// run duration — the dataplane throughput the run actually pushed,
	// reported alongside the latency percentiles so encoding comparisons
	// have a rate to line up against.
	Reports       int64   `json:"reports"`
	ReportsPerSec float64 `json:"reports_per_sec"`

	// LatencyMS is the sample→trace-point latency distribution in
	// milliseconds across every point of every session.
	LatencyMS Percentiles `json:"latency_ms"`

	// RetraceMS summarizes WAL retrace wall latency per session when
	// -retrace is set (two runs each; both must be byte-identical).
	RetraceMS Percentiles `json:"retrace_ms,omitempty"`
	// RetracePoints totals the trajectory points the retraces returned.
	RetracePoints int64 `json:"retrace_points,omitempty"`

	// ServerP99MS is the daemon's own view of the run: the interpolated
	// p99 of the rfidrawd_report_latency_seconds histogram delta across
	// the run, in milliseconds (-server-check-ms). ServerE2ECount is how
	// many end-to-end observations the run added to that histogram.
	ServerP99MS    float64 `json:"server_p99_ms,omitempty"`
	ServerE2ECount uint64  `json:"server_e2e_count,omitempty"`

	SessionResults []SessionResult `json:"session_results"`
}

// Percentiles summarizes a latency sample set in milliseconds.
type Percentiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SessionResult is one session's outcome.
type SessionResult struct {
	ID      string  `json:"id"`
	Points  int64   `json:"points"`
	Glyphs  int64   `json:"glyphs"`
	Drops   int64   `json:"drops"`
	Reports int64   `json:"reports"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
	Shed    bool    `json:"shed,omitempty"`
	// Parked marks a session the daemon parked under pressure mid-run;
	// Retried429 counts this session's admission retries (overload mode).
	Parked      bool    `json:"parked,omitempty"`
	Retried429  int     `json:"retried_429,omitempty"`
	RetryWaitMS float64 `json:"retry_wait_ms,omitempty"`
	Err         string  `json:"err,omitempty"`

	// RetraceMS is this session's retrace wall time (first run);
	// RetracePoints the points it returned.
	RetraceMS     float64 `json:"retrace_ms,omitempty"`
	RetracePoints int64   `json:"retrace_points,omitempty"`

	// tierPoints/tierDrops/downgrades tally the extra subscribers'
	// streams by negotiated tier (aggregated into the Report).
	tierPoints [3]int64
	tierDrops  [3]int64
	downgrades int64

	// lats carries the raw samples into the global distribution.
	lats []float64
}

func run(daemon, ingest string, sessions, tags int, word string, seed int64, pace float64, duration time.Duration, retrace bool, profileName string, overload bool, svCheckMS float64, encoding string, subscribers int, tier string) (*Report, error) {
	// One shared scenario, replayed into every session: sessions are
	// isolated by the daemon, so identical content exercises the serving
	// layer without paying scenario generation per session. A -profile
	// swaps in that profile's seed, geometry and propagation, and faults
	// the reader streams before replay — the same named corpus the
	// scenario test gates and the soak script's adversarial phase use.
	simCfg := sim.Config{Seed: seed}
	var prof corpus.Profile
	geometry := ""
	if profileName != "" {
		var err error
		if prof, err = corpus.ProfileByName(profileName); err != nil {
			return nil, err
		}
		spec, err := deploy.GeometryByName(prof.Geometry)
		if err != nil {
			return nil, err
		}
		dep, err := spec.BuildDefault()
		if err != nil {
			return nil, err
		}
		simCfg = sim.Config{Seed: prof.Seed, Deployment: dep, Region: spec.Region()}
		if prof.NLOS {
			simCfg.Prop = sim.NLOS
		}
		geometry = prof.Geometry
	}
	sc, err := sim.New(simCfg)
	if err != nil {
		return nil, err
	}
	texts := make([]string, tags)
	starts := make([]geom.Vec2, tags)
	for i := range texts {
		if i == 0 {
			texts[i] = word
		} else {
			texts[i] = extraWords[(i-1)%len(extraWords)]
		}
		starts[i] = geom.Vec2{X: 0.35 + 0.45*float64(i%4), Z: 0.55 + 0.5*float64(i/4%3)}
	}
	scen, err := sc.RunWords(texts, starts)
	if err != nil {
		return nil, err
	}
	streams := scen.ReportsRF
	skews := make([]time.Duration, len(streams))
	if profileName != "" {
		streams = prof.Plan().ApplyAll(scen.ReportsRF)
		// A clock-offset fault skews the reader's stamps, not its emission
		// schedule; the replay has to send those stamps at true time for
		// the skew to reach the daemon as cross-reader disorder.
		for _, f := range prof.Faults {
			if f.ClockOffset == 0 {
				continue
			}
			for r := range skews {
				if f.Reader == faultgen.AllReaders || f.Reader == r {
					skews[r] += f.ClockOffset
				}
			}
		}
	}
	// Max over every report, not just each stream's last: fault-skewed
	// timestamps are not monotonic.
	var scenDur time.Duration
	for _, reports := range streams {
		for _, rep := range reports {
			if rep.Time > scenDur {
				scenDur = rep.Time
			}
		}
	}
	perTagSweep := scen.SweepInterval * time.Duration(tags)

	ctx, cancel := context.WithTimeout(context.Background(), duration+90*time.Second)
	defer cancel()

	// Snapshot the daemon's end-to-end latency histogram before any load,
	// so the post-run delta isolates this run's observations from whatever
	// the daemon served earlier.
	checkClient := &server.Client{BaseURL: daemon}
	var beforeSnap obs.HistogramSnapshot
	if svCheckMS > 0 {
		txt, err := checkClient.FetchMetrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("server check: %w", err)
		}
		if beforeSnap, err = parseE2EHistogram(txt); err != nil {
			return nil, fmt.Errorf("server check: %w", err)
		}
	}

	results := make([]SessionResult, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if overload {
				// Ramp the creates instead of a thundering herd: the
				// congestion score is rate-driven (the pressure loop needs
				// two 1s samples before any rate exists), so later creates
				// must land after pressure from earlier sessions has had
				// time to register — that is what makes admission refusals
				// observable at all.
				time.Sleep(time.Duration(i) * 400 * time.Millisecond)
			}
			results[i] = runSession(ctx, sessionParams{
				client:      &server.Client{BaseURL: daemon, Ingest: ingest, Encoding: encoding},
				id:          fmt.Sprintf("load-%d", i),
				streams:     streams,
				skews:       skews,
				scenDur:     scenDur,
				perTagSweep: perTagSweep,
				pace:        pace,
				duration:    duration,
				retrace:     retrace,
				geometry:    geometry,
				overload:    overload,
				subscribers: subscribers,
				tier:        tier,
			})
		}(i)
	}
	wg.Wait()

	report := &Report{
		Sessions: sessions, Tags: tags, Pace: pace,
		DurationS:        duration.Seconds(),
		Profile:          profileName,
		Encoding:         encoding,
		ExtraSubscribers: subscribers,
		SessionResults:   results,
	}
	if subscribers > 0 {
		report.SubscriberTier = tier
	}
	var all, retraces []float64
	for _, r := range results {
		report.Points += r.Points
		report.Glyphs += r.Glyphs
		report.Drops += r.Drops
		report.Reports += r.Reports
		report.RetracePoints += r.RetracePoints
		report.Overload429 += int64(r.Retried429)
		report.RetryWaitMS += r.RetryWaitMS
		report.Tier0Points += r.tierPoints[0]
		report.Tier1Points += r.tierPoints[1]
		report.Tier2Points += r.tierPoints[2]
		report.Tier0Drops += r.tierDrops[0]
		report.Tier1Drops += r.tierDrops[1]
		report.Tier2Drops += r.tierDrops[2]
		report.Downgrades += r.downgrades
		if r.RetraceMS > 0 {
			retraces = append(retraces, r.RetraceMS)
		}
		switch {
		case r.Shed:
			report.Shed++
		case r.Parked:
			// A parked session is the pressure loop doing its job: the
			// record survives and is resumable, so whatever the stream
			// teardown looked like from this side is not a failure.
			report.Parked++
		case r.Err != "":
			// Shed sessions are the daemon doing its job under overload,
			// not a failure of the run.
			report.Failed++
		}
		all = append(all, r.lats...)
	}
	report.LatencyMS = percentiles(all)
	report.RetraceMS = percentiles(retraces)
	if duration > 0 {
		report.ReportsPerSec = float64(report.Reports) / duration.Seconds()
	}
	if report.Failed > 0 {
		return report, fmt.Errorf("%d of %d sessions failed", report.Failed, sessions)
	}
	// Cross-check the daemon's own latency accounting against what the
	// client measured. The server's end-to-end histogram covers ingest
	// arrival → trace-point emit, a strict subset of the client's
	// send → receive span, so a server-side p99 above the client's (plus
	// the tolerance) means the stage instrumentation is broken, and a
	// histogram that gained nothing during a run that streamed points
	// means the stamps are not wired through at all.
	if svCheckMS > 0 {
		txt, err := checkClient.FetchMetrics(ctx)
		if err != nil {
			return report, fmt.Errorf("server check: %w", err)
		}
		after, err := parseE2EHistogram(txt)
		if err != nil {
			return report, fmt.Errorf("server check: %w", err)
		}
		diff := diffHistogram(after, beforeSnap)
		report.ServerE2ECount = diff.Count
		report.ServerP99MS = diff.Quantile(0.99) * 1000
		if diff.Count == 0 {
			return report, fmt.Errorf("server check: rfidrawd_report_latency_seconds gained no observations during the run")
		}
		if report.LatencyMS.Count > 0 && report.ServerP99MS > report.LatencyMS.P99+svCheckMS {
			return report, fmt.Errorf("server check: server-side p99 %.1fms exceeds client-observed p99 %.1fms by more than %.1fms",
				report.ServerP99MS, report.LatencyMS.P99, svCheckMS)
		}
	}
	return report, nil
}

// parseE2EHistogram extracts the rfidrawd_report_latency_seconds
// cumulative buckets from a /metrics exposition dump into an
// obs.HistogramSnapshot (Count taken from the +Inf bucket). The bucket
// bounds must be exactly the obs exponential ladder the daemon exports.
func parseE2EHistogram(metrics string) (obs.HistogramSnapshot, error) {
	var snap obs.HistogramSnapshot
	const prefix = `rfidrawd_report_latency_seconds_bucket{le="`
	found := false
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.Index(rest, `"`)
		if q < 0 {
			return snap, fmt.Errorf("malformed bucket line %q", line)
		}
		le := rest[:q]
		val, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(rest[q:], `"}`)), 10, 64)
		if err != nil {
			return snap, fmt.Errorf("malformed bucket line %q: %w", line, err)
		}
		found = true
		if le == "+Inf" {
			snap.Count = val
			continue
		}
		idx := -1
		for i := 0; i < obs.NumBuckets; i++ {
			if le == strconv.FormatFloat(obs.BucketBound(i), 'g', -1, 64) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return snap, fmt.Errorf("unexpected bucket bound le=%q", le)
		}
		snap.Buckets[idx] = val
	}
	if !found {
		return snap, fmt.Errorf("no rfidrawd_report_latency_seconds_bucket series in /metrics")
	}
	return snap, nil
}

// diffHistogram subtracts two cumulative snapshots of the same
// histogram, yielding the observations made between them.
func diffHistogram(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{
		Count:      after.Count - before.Count,
		SumSeconds: after.SumSeconds - before.SumSeconds,
	}
	for i := range d.Buckets {
		d.Buckets[i] = after.Buckets[i] - before.Buckets[i]
	}
	return d
}

type sessionParams struct {
	client      *server.Client
	id          string
	streams     [][]rfid.Report // per-reader replay streams (faulted under -profile)
	skews       []time.Duration // per-reader clock skew (stamps ahead of send schedule)
	scenDur     time.Duration
	perTagSweep time.Duration
	pace        float64
	duration    time.Duration
	retrace     bool
	geometry    string
	overload    bool
	subscribers int    // extra stream subscribers to attach
	tier        string // their negotiated tier: "0", "1", "2" or "mixed"
}

// createSession opens the daemon session; in overload mode an HTTP 429
// is retried after its mandatory Retry-After hint, so admission
// backpressure shapes the ramp instead of failing it.
func createSession(ctx context.Context, p sessionParams, res *SessionResult) (string, error) {
	spec := server.SessionSpec{ID: p.id, Geometry: p.geometry}
	deadline := time.Now().Add(p.duration)
	for {
		id, err := p.client.CreateSession(ctx, spec)
		if err == nil {
			return id, nil
		}
		if !p.overload || !errors.Is(err, server.ErrOverloaded) {
			return "", err
		}
		res.Retried429++
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.RetryAfter <= 0 {
			return "", fmt.Errorf("429 without a Retry-After hint: %w", err)
		}
		if time.Now().Add(apiErr.RetryAfter).After(deadline) {
			// Past the run budget: the daemon consistently refused this
			// session — that is shedding, not an error.
			res.Shed = true
			return "", err
		}
		res.RetryWaitMS += float64(apiErr.RetryAfter) / float64(time.Millisecond)
		select {
		case <-time.After(apiErr.RetryAfter):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

func runSession(ctx context.Context, p sessionParams) SessionResult {
	res := SessionResult{ID: p.id}
	id, err := createSession(ctx, p, &res)
	if err != nil {
		if errors.Is(err, server.ErrSessionLimit) {
			res.Shed = true
		}
		if !res.Shed {
			res.Err = err.Error()
		}
		return res
	}
	defer func() {
		// A parked session is deliberately left behind in overload mode:
		// the record on the daemon is the artifact the post-run harness
		// resumes and retraces.
		if !res.Parked {
			p.client.DeleteSession(context.Background(), id)
		}
	}()

	events, errs, err := p.client.Subscribe(ctx, id)
	if err != nil {
		res.Err = err.Error()
		return res
	}

	// Fan-out load: -subscribers extra consumers on the same stream, each
	// negotiating its tier (-tier mixed round-robins 0/1/2). Each tallies
	// its own stream — points, drop notices, and the in-stream "tier"
	// downgrade announcements — keyed by the tier it negotiated, so the
	// report can say e.g. "T0 subscribers lost nothing" even after some
	// T2 subscriber was stepped down.
	type extraSummary struct {
		tier                      int
		points, drops, downgrades int64
		err                       error
	}
	extraCh := make(chan extraSummary, p.subscribers)
	for i := 0; i < p.subscribers; i++ {
		tier := p.tier
		if tier == "mixed" {
			tier = strconv.Itoa(i % 3)
		}
		go func(tier string) {
			level, _ := strconv.Atoi(tier)
			sum := extraSummary{tier: level}
			defer func() { extraCh <- sum }()
			ec := &server.Client{BaseURL: p.client.BaseURL, Encoding: p.client.Encoding, Tier: tier}
			evs, serrs, err := ec.Subscribe(ctx, id)
			if err != nil {
				sum.err = err
				return
			}
			for ev := range evs {
				switch ev.Type {
				case "point":
					sum.points++
				case "drop":
					sum.drops += int64(ev.Dropped)
				case "tier":
					if ev.Tier < ev.FromTier {
						sum.downgrades++
					}
				}
			}
			select {
			case err := <-serrs:
				sum.err = err
			default:
			}
		}(tier)
	}

	// The stream consumer: latency for a point at stream time T is
	// recvWall − (start + (T + sweep)/pace) — the sweep term because a
	// sweep's position can only be computed once the next sweep's first
	// report arrives. The consumer owns its tallies; they transfer to res
	// over sumCh when the stream ends.
	start := time.Now()
	type consumeSummary struct {
		points, glyphs, drops int64
		lats                  []float64
	}
	sumCh := make(chan consumeSummary, 1)
	go func() {
		var sum consumeSummary
		defer func() { sumCh <- sum }()
		for ev := range events {
			switch ev.Type {
			case "point":
				sum.points++
				expected := start.Add(time.Duration(float64(ev.T+p.perTagSweep) / p.pace))
				lat := time.Since(expected)
				if lat < 0 {
					lat = 0
				}
				sum.lats = append(sum.lats, float64(lat)/float64(time.Millisecond))
			case "glyph":
				sum.glyphs++
			case "drop":
				sum.drops += int64(ev.Dropped)
			}
		}
	}()

	// One connection per reader loops the scenario until the duration is
	// up (two readers on the default geometry, four on multiroom).
	replayCtx, stopReplay := context.WithDeadline(ctx, start.Add(p.duration))
	var rwg sync.WaitGroup
	var reportsSent atomic.Int64
	errCh := make(chan error, len(p.streams))
	for readerID := range p.streams {
		rwg.Add(1)
		go func(readerID int) {
			defer rwg.Done()
			hello := readerwire.Hello{
				Proto:         readerwire.ProtoVersion,
				ReaderID:      uint8(readerID),
				AntennaCount:  4,
				SweepInterval: p.perTagSweep,
			}
			rs, err := p.client.DialIngest(id, hello)
			if err != nil {
				errCh <- err
				return
			}
			defer rs.Close()
			defer func() { reportsSent.Add(rs.Sent()) }()
			for loop := 0; replayCtx.Err() == nil; loop++ {
				offset := time.Duration(loop) * (p.scenDur + loopGap)
				err := rs.ReplaySkewed(replayCtx, p.streams[readerID], p.pace, offset, start, p.skews[readerID])
				if err != nil {
					if replayCtx.Err() == nil {
						errCh <- err
					}
					return
				}
			}
		}(readerID)
	}
	rwg.Wait()
	stopReplay()
	res.Reports = reportsSent.Load()
	select {
	case err := <-errCh:
		res.Err = err.Error()
	default:
	}

	// Let the daemon's idle drain flush the tail, then tear down; the
	// delete ends the stream, which ends the consumer.
	time.Sleep(400 * time.Millisecond)

	// Under overload the pressure loop may have parked this session
	// mid-replay (its ingest connections die and the stream ends early).
	// That is the admission layer's designed relief valve, so learn the
	// session's fate from the control plane before judging errors.
	if p.overload {
		if state, err := p.client.Control(ctx); err == nil {
			for _, cs := range state.Sessions {
				if cs.ID == id && cs.State == "recovered" {
					res.Parked = true
					res.Err = ""
					break
				}
			}
		}
	}

	// Replay-mode traffic: re-trace the recorded session from its WAL,
	// twice, and gate on byte-identical responses — the serving-side
	// proof that a retrace is a pure function of the record. Runs after
	// the drain settle so the log is quiescent; if a straggling report
	// still lands between the runs the heads differ and the byte gate
	// does not apply (each run is only a function of ITS record prefix).
	if p.retrace && !res.Parked {
		t0 := time.Now()
		sum, raw1, err := p.client.Retrace(ctx, id, "")
		if err != nil {
			res.Err = "retrace: " + err.Error()
		} else {
			res.RetraceMS = float64(time.Since(t0)) / float64(time.Millisecond)
			for _, tag := range sum.Tags {
				res.RetracePoints += int64(len(tag.Points))
			}
			if res.RetracePoints == 0 {
				res.Err = "retrace returned no points"
			}
			if sum2, raw2, err := p.client.Retrace(ctx, id, ""); err != nil {
				res.Err = "retrace (2nd): " + err.Error()
			} else if sum2.Records == sum.Records && !bytes.Equal(raw1, raw2) {
				res.Err = "retrace is nondeterministic: two runs over the same record differ"
			}
		}
	}
	if !res.Parked {
		if err := p.client.DeleteSession(context.Background(), id); err != nil && res.Err == "" {
			res.Err = err.Error()
		}
	}
	select {
	case sum := <-sumCh:
		res.Points, res.Glyphs, res.Drops = sum.points, sum.glyphs, sum.drops
		res.lats = sum.lats
	case <-time.After(10 * time.Second):
		if res.Err == "" {
			res.Err = "stream did not end after session delete"
		}
	}
	for i := 0; i < p.subscribers; i++ {
		select {
		case sum := <-extraCh:
			res.tierPoints[sum.tier] += sum.points
			res.tierDrops[sum.tier] += sum.drops
			res.downgrades += sum.downgrades
			if sum.err != nil && res.Err == "" && !res.Parked {
				res.Err = fmt.Sprintf("tier-%d subscriber: %v", sum.tier, sum.err)
			}
		case <-time.After(10 * time.Second):
			if res.Err == "" {
				res.Err = "extra subscriber stream did not end after session delete"
			}
		}
	}
	select {
	case err := <-errs:
		if res.Err == "" && !res.Parked {
			res.Err = err.Error()
		}
	default:
	}
	if res.Points == 0 && res.Err == "" && !res.Parked {
		res.Err = "session produced no points"
	}
	pct := percentiles(res.lats)
	res.P50, res.P99 = pct.P50, pct.P99
	return res
}

// percentiles computes the latency summary of a millisecond sample set.
func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx]
	}
	return Percentiles{
		Count: len(sorted),
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		Max:   sorted[len(sorted)-1],
	}
}
