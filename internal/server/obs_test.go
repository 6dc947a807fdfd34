package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfidraw/internal/obs"
)

// obsServer serves reg over real sockets (a fresh registry on the test
// engine factory when reg is nil), returning it with a bound API client.
func obsServer(t *testing.T, reg *Registry) (*Server, *Client) {
	t.Helper()
	if reg == nil {
		reg = testRegistry(t, RegistryConfig{})
	}
	srv := serve(t, reg)
	return srv, &Client{BaseURL: "http://" + srv.HTTPAddr()}
}

// TestMetricsExpositionLint scrapes a loaded daemon and lints the whole
// Prometheus text exposition: every series needs HELP and TYPE declared
// before its samples and exactly once, histogram buckets must be
// cumulative and in ascending le order, and each label set's +Inf
// bucket must equal its _count. The scrape itself goes through
// Client.FetchMetrics, which asserts the status and Content-Type.
func TestMetricsExpositionLint(t *testing.T) {
	run, _ := scenario(t)
	srv, cl := obsServer(t, nil)
	sess, err := srv.Registry().Open(SessionSpec{ID: "lint", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// An HTTP stream subscriber, so the write stage sees traffic too.
	events, errs, err := cl.Subscribe(ctx, "lint")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		seen := false
		for ev := range events {
			if ev.Type == "point" && !seen {
				seen = true
				close(got)
			}
		}
	}()
	feedSession(t, run, sess)
	select {
	case <-got:
	case err := <-errs:
		t.Fatalf("stream error: %v", err)
	case <-ctx.Done():
		t.Fatal("no point reached the HTTP stream")
	}

	text, err := cl.FetchMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lintExposition(t, text)

	// The observability families this PR introduces must be present with
	// the right types, and every pipeline stage must have observed load.
	for fam, want := range map[string]string{
		"rfidrawd_stage_seconds":              "histogram",
		"rfidrawd_report_latency_seconds":     "histogram",
		"rfidrawd_build_info":                 "gauge",
		"rfidrawd_process_start_time_seconds": "gauge",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" "+want) {
			t.Errorf("missing # TYPE %s %s", fam, want)
		}
	}
	for _, st := range obs.Stages() {
		line := `rfidrawd_stage_seconds_bucket{stage="` + st.String() + `",le="+Inf"}`
		count := sampleValue(t, text, line)
		if count == 0 {
			t.Errorf("stage %s histogram never observed anything", st)
		}
	}
	if sampleValue(t, text, `rfidrawd_report_latency_seconds_count`) == 0 {
		t.Error("end-to-end latency histogram never observed anything")
	}
}

// sampleValue finds the sample whose series text starts with prefix and
// returns its value (0 with an error logged when absent).
func sampleValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Errorf("series %s has unparseable value %q", prefix, rest)
			}
			return v
		}
	}
	t.Errorf("series %s absent from /metrics", prefix)
	return 0
}

// lintExposition enforces the Prometheus text-format invariants over a
// full scrape.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	help := map[string]bool{}
	typ := map[string]string{}
	type key struct{ family, labels string }
	lastLe := map[key]float64{}
	lastVal := map[key]float64{}
	infVal := map[key]float64{}
	countVal := map[key]float64{}
	seenInf := map[key]bool{}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("HELP line without text: %q", line)
			}
			help[f[2]] = true
			continue
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := typ[f[2]]; dup {
				t.Errorf("duplicate # TYPE for %s", f[2])
			}
			typ[f[2]] = f[3]
			continue
		case strings.HasPrefix(line, "#"):
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Errorf("unterminated label set: %q", line)
				continue
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && typ[base] == "histogram" {
				family = base
				break
			}
		}
		if typ[family] == "" {
			t.Errorf("sample %s has no # TYPE", name)
		}
		if !help[family] {
			t.Errorf("sample %s has no # HELP", name)
		}
		if typ[family] != "histogram" {
			continue
		}
		// Histogram invariants, per label set (minus le).
		var le string
		var rest []string
		for _, kv := range strings.Split(labels, ",") {
			switch {
			case kv == "":
			case strings.HasPrefix(kv, `le="`):
				le = strings.TrimSuffix(strings.TrimPrefix(kv, `le="`), `"`)
			default:
				rest = append(rest, kv)
			}
		}
		k := key{family, strings.Join(rest, ",")}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				t.Errorf("histogram bucket without le label: %q", line)
				continue
			}
			leVal := math.Inf(1)
			if le != "+Inf" {
				if leVal, err = strconv.ParseFloat(le, 64); err != nil {
					t.Errorf("unparseable le %q in %q", le, line)
					continue
				}
			}
			if prev, ok := lastLe[k]; ok && leVal <= prev {
				t.Errorf("%s{%s}: bucket le=%q not above the previous bound", family, k.labels, le)
			}
			if val < lastVal[k] {
				t.Errorf("%s{%s}: bucket counts not cumulative at le=%q (%v < %v)", family, k.labels, le, val, lastVal[k])
			}
			lastLe[k], lastVal[k] = leVal, val
			if math.IsInf(leVal, 1) {
				infVal[k], seenInf[k] = val, true
			}
		case strings.HasSuffix(name, "_count"):
			countVal[k] = val
		}
	}
	for k := range countVal {
		if !seenInf[k] {
			t.Errorf("%s{%s}: histogram has a _count but no +Inf bucket", k.family, k.labels)
			continue
		}
		if infVal[k] != countVal[k] {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", k.family, k.labels, infVal[k], countVal[k])
		}
	}
	for k := range seenInf {
		if _, ok := countVal[k]; !ok {
			t.Errorf("%s{%s}: histogram has buckets but no _count", k.family, k.labels)
		}
	}
}

// TestFetchMetricsRejectsBadResponses pins the client-side scrape
// hardening: a non-200 status or a non-exposition Content-Type must
// fail instead of returning an error page as "metrics".
func TestFetchMetricsRejectsBadResponses(t *testing.T) {
	ctx := context.Background()
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer boom.Close()
	if _, err := (&Client{BaseURL: boom.URL}).FetchMetrics(ctx); err == nil {
		t.Error("FetchMetrics accepted a 500 response")
	}

	html := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte("<html>not metrics</html>"))
	}))
	defer html.Close()
	if _, err := (&Client{BaseURL: html.URL}).FetchMetrics(ctx); err == nil || !strings.Contains(err.Error(), "Content-Type") {
		t.Errorf("FetchMetrics on text/html: %v, want a Content-Type error", err)
	}

	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		w.Write([]byte("rfidrawd_up 1\n"))
	}))
	defer good.Close()
	if txt, err := (&Client{BaseURL: good.URL}).FetchMetrics(ctx); err != nil || !strings.Contains(txt, "rfidrawd_up") {
		t.Errorf("FetchMetrics on a proper exposition: %q, %v", txt, err)
	}
}

// TestTraceSpanSampling drives the span sampler end to end: enable
// 1-in-1 sampling through the control plane, stream a session, and dump
// the spans back as NDJSON.
func TestTraceSpanSampling(t *testing.T) {
	run, _ := scenario(t)
	srv, cl := obsServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	one := 1
	state, err := cl.UpdateControl(ctx, ControlPatchJSON{TraceSampleN: &one})
	if err != nil {
		t.Fatal(err)
	}
	if state.TraceSampleN != 1 {
		t.Fatalf("control state trace_sample_n = %d after setting 1", state.TraceSampleN)
	}
	neg := -1
	if _, err := cl.UpdateControl(ctx, ControlPatchJSON{TraceSampleN: &neg}); err == nil {
		t.Error("negative trace_sample_n was accepted")
	}

	sess, err := srv.Registry().Open(SessionSpec{ID: "spans", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)

	spans, err := cl.FetchTrace(ctx, "spans")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("1-in-1 sampling recorded no spans")
	}
	for i, sp := range spans {
		if sp.Wall == 0 {
			t.Fatalf("span %d has no wall stamp", i)
		}
		if sp.TotalNs < sp.EmitNs || sp.TotalNs < 0 {
			t.Fatalf("span %d: total %dns < emit %dns", i, sp.TotalNs, sp.EmitNs)
		}
		if sp.ReorderNs < 0 || sp.WALNs < 0 || sp.OfferNs < 0 {
			t.Fatalf("span %d has a negative stage duration: %+v", i, sp)
		}
	}

	// The control plane summarizes the ring per session.
	state, err = cl.Control(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cs := range state.Sessions {
		if cs.ID == "spans" {
			found = true
			if cs.Spans == 0 {
				t.Error("control state reports zero spans for the sampled session")
			}
		}
	}
	if !found {
		t.Fatal("session absent from control state")
	}

	// The unknown-session path returns the API error envelope.
	if _, err := cl.FetchTrace(ctx, "nope"); err == nil {
		t.Error("FetchTrace of an unknown session succeeded")
	}
}

// TestEventTimelineParkResume proves the diagnostic timeline is one
// continuous record across the session's whole lifecycle: the create
// event survives an operator park and a resume (the timeline rides the
// resumeState hand-off), and the events API serves it in order.
func TestEventTimelineParkResume(t *testing.T) {
	run, _ := scenario(t)
	reg := walRegistry(t, t.TempDir())
	srv, cl := obsServer(t, reg)
	_ = srv
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sess, err := reg.Open(SessionSpec{ID: "tl", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	if err := reg.Park("tl"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Resume("tl"); err != nil {
		t.Fatal(err)
	}

	evs, total, err := cl.FetchEvents(ctx, "tl")
	if err != nil {
		t.Fatal(err)
	}
	if total < 3 || len(evs) < 3 {
		t.Fatalf("timeline has %d events (%d retained), want >= 3", total, len(evs))
	}
	idx := map[string]int{}
	for i, ev := range evs {
		if _, seen := idx[ev.Type]; !seen {
			idx[ev.Type] = i
		}
		if ev.Type == obs.EventPark && ev.Detail != "operator" {
			t.Errorf("park event detail = %q, want operator", ev.Detail)
		}
	}
	create, okC := idx[obs.EventCreate]
	park, okP := idx[obs.EventPark]
	resume, okR := idx[obs.EventResume]
	if !okC || !okP || !okR {
		t.Fatalf("timeline %v missing create/park/resume", evs)
	}
	if !(create < park && park < resume) {
		t.Fatalf("timeline out of order: create@%d park@%d resume@%d", create, park, resume)
	}

	// The control plane surfaces the most recent event.
	state, err := cl.Control(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range state.Sessions {
		if cs.ID != "tl" {
			continue
		}
		if cs.Events != total {
			t.Errorf("control state events = %d, want %d", cs.Events, total)
		}
		if !strings.HasPrefix(cs.LastEvent, obs.EventResume) {
			t.Errorf("control state last_event = %q, want a resume", cs.LastEvent)
		}
	}
}

// TestLogLevelKnob mutates the runtime logging gate through the control
// plane and rejects nonsense levels before any mutation.
func TestLogLevelKnob(t *testing.T) {
	_, cl := obsServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	debug := "debug"
	state, err := cl.UpdateControl(ctx, ControlPatchJSON{LogLevel: &debug})
	if err != nil {
		t.Fatal(err)
	}
	if state.LogLevel != "debug" {
		t.Fatalf("log_level = %q after setting debug", state.LogLevel)
	}
	bogus := "shouting"
	if _, err := cl.UpdateControl(ctx, ControlPatchJSON{LogLevel: &bogus}); err == nil {
		t.Error("bogus log level was accepted")
	}
	state, err = cl.Control(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if state.LogLevel != "debug" {
		t.Fatalf("rejected patch mutated log_level to %q", state.LogLevel)
	}
}
