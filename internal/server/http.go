package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/obs"
	"rfidraw/internal/vote"
)

// sessionInfo is the JSON shape of one session on the control API.
type sessionInfo struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	AgeMS   int64     `json:"age_ms"`
	// State is "live" (loop and engine running), "recovered" (serving
	// from the retained WAL only) or "closed".
	State string `json:"state"`
	// Geometry names the session's antenna geometry; omitted for the
	// default deployment.
	Geometry string `json:"geometry,omitempty"`
	// WALSeq is the session's log head sequence; 0 when nothing is
	// recorded. ?from=seq catch-up requests address this space.
	WALSeq      uint64       `json:"wal_seq,omitempty"`
	Readers     int          `json:"readers"`
	Subscribers int          `json:"subscribers"`
	Reports     int64        `json:"reports"`
	Points      int64        `json:"points"`
	Glyphs      int64        `json:"glyphs"`
	Drops       int64        `json:"drops"`
	SearchEvals int64        `json:"search_evals"`
	Resyncs     int64        `json:"resync_bytes"`
	OutOfOrder  int64        `json:"out_of_order"`
	ReorderLate int64        `json:"reorder_late"`
	Tags        []sessionTag `json:"tags,omitempty"`
}

type sessionTag struct {
	Tag            string  `json:"tag"`
	Positions      int     `json:"positions"`
	Started        bool    `json:"started"`
	MeanVote       float64 `json:"mean_vote"`
	Reacquisitions int     `json:"reacquisitions"`
	Hypotheses     int     `json:"hypotheses"`
	LeaderSwitches int     `json:"leader_switches"`
	Retirements    int     `json:"retirements"`
	Buffered       int     `json:"buffered"`
	SearchEvals    int     `json:"search_evals"`
	Err            string  `json:"err,omitempty"`
}

func (s *Server) info(sess *Session) sessionInfo {
	info := sessionInfo{
		ID:          sess.ID,
		Created:     sess.Created,
		AgeMS:       time.Since(sess.Created).Milliseconds(),
		State:       sess.State(),
		Geometry:    sess.geometry,
		WALSeq:      sess.WALSeq(),
		Readers:     sess.Readers(),
		Subscribers: sess.Subscribers(),
		Reports:     sess.reports.Load(),
		Points:      sess.points.Load(),
		Glyphs:      sess.glyphs.Load(),
		Drops:       sess.drops.Load(),
		SearchEvals: sess.searchEvals.Load(),
		Resyncs:     sess.resyncs.Load(),
		OutOfOrder:  sess.outOfOrder.Load(),
		ReorderLate: sess.reorderLate.Load(),
	}
	for _, st := range sess.TagStats() {
		tag := sessionTag{
			Tag: st.Tag, Positions: st.Positions, Started: st.Started,
			MeanVote: st.MeanVote, Reacquisitions: st.Reacquisitions,
			Hypotheses: st.Hypotheses, LeaderSwitches: st.LeaderSwitches,
			Retirements: st.Retirements, Buffered: st.Buffered,
			SearchEvals: st.SearchEvals,
		}
		if st.Err != nil {
			tag.Err = st.Err.Error()
		}
		info.Tags = append(info.Tags, tag)
	}
	return info
}

// handler builds the control/streaming API mux.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/sessions/{id}/retrace", s.handleRetrace)
	mux.HandleFunc("GET /v1/control", s.handleControl)
	mux.HandleFunc("POST /v1/control/config", s.handleControlConfig)
	mux.HandleFunc("POST /v1/sessions/{id}/park", s.handlePark)
	mux.HandleFunc("POST /v1/sessions/{id}/resume", s.handleResume)
	mux.HandleFunc("POST /v1/sessions/{id}/drain", s.handleDrain)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the one JSON error envelope every /v1 handler speaks:
// a stable machine-readable code, a human message, and (on 429s) the
// suggested backoff. Client decodes it into APIError.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header on overload refusals.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}

// writeOverload answers a score-driven admission refusal: HTTP 429 with
// the standard Retry-After header (whole seconds, rounded up) and the
// same hint in milliseconds in the envelope.
func writeOverload(w http.ResponseWriter, oe *OverloadError) {
	secs := int64((oe.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusTooManyRequests, errorEnvelope{Error: errorBody{
		Code:         "overloaded",
		Message:      oe.Error(),
		RetryAfterMS: oe.RetryAfter.Milliseconds(),
	}})
}

// errorCodes is the one mapping of the error sentinels onto the
// envelope: writeSessionError answers with it and APIError.Is reads it
// back, so server and client cannot drift. An empty msg sends
// err.Error(). Wrapped sentinels match in table order.
var errorCodes = []struct {
	err    error
	status int
	code   string
	msg    string
}{
	{ErrSessionLimit, http.StatusServiceUnavailable, "session_limit", "session limit reached"},
	{ErrSubscriberLimit, http.StatusServiceUnavailable, "subscriber_limit", "subscriber limit reached"},
	{ErrOverloaded, http.StatusTooManyRequests, "overloaded", ""},
	{ErrSessionExists, http.StatusConflict, "conflict", "session exists"},
	{ErrBadSessionID, http.StatusBadRequest, "bad_session_id", ""},
	{ErrBadSpec, http.StatusBadRequest, "bad_request", ""},
	{ErrUnknownSession, http.StatusNotFound, "not_found", "unknown session"},
	{ErrNotParked, http.StatusConflict, "not_parked", ""},
	{ErrNotLive, http.StatusConflict, "not_live", ""},
	{ErrNotDurable, http.StatusConflict, "not_durable", ""},
	{ErrNoWAL, http.StatusBadRequest, "no_wal", "session has no write-ahead log"},
	{ErrSessionClosed, http.StatusGone, "gone", "session closed"},
}

// writeSessionError answers any error the open, verb, stream and
// retrace paths produce: an overload refusal with its backoff, a
// sentinel through errorCodes, anything else as a 500.
func writeSessionError(w http.ResponseWriter, err error) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		writeOverload(w, oe)
		return
	}
	for _, ec := range errorCodes {
		if errors.Is(err, ec.err) {
			msg := ec.msg
			if msg == "" {
				msg = err.Error()
			}
			writeError(w, ec.status, ec.code, msg)
			return
		}
	}
	writeError(w, http.StatusInternalServerError, "internal", err.Error())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"sessions":   s.reg.Len(),
		"version":    obs.BuildVersion(),
		"go_version": obs.GoVersion(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	live := liveSums{
		searchEvals:    s.metrics.SearchEvalsRetired.Load(),
		leaderSwitches: s.metrics.LeaderSwitchesRetired.Load(),
		retirements:    s.metrics.RetirementsRetired.Load(),
		// A scrape refreshes the congestion score so operators (and the
		// soak gate) always read a current value.
		score: s.reg.RefreshCongestion(time.Now()),
	}
	for _, sess := range s.reg.List() {
		live.searchEvals += sess.searchEvals.Load()
		live.hypotheses += sess.hypotheses.Load()
		live.leaderSwitches += sess.leaderSwitches.Load()
		live.retirements += sess.retirements.Load()
	}
	usage := s.reg.WALUsage()
	live.walBytes = usage.Bytes
	live.walSegments = int64(usage.Segments)
	live.pipeline = s.reg.Pipeline()
	now := time.Now()
	total := s.metrics.Reports.Load()
	s.rateMu.Lock()
	if !s.lastScrape.IsZero() {
		if dt := now.Sub(s.lastScrape).Seconds(); dt > 0 {
			live.reportsPerSec = float64(total-s.lastReports) / dt
		}
	}
	s.lastScrape, s.lastReports = now, total
	s.rateMu.Unlock()
	w.Header().Set("Content-Type", MetricsContentType)
	s.metrics.render(w, live)
}

// createSessionRequest is the POST /v1/sessions body — the JSON shape
// of a SessionSpec; all fields optional, unknown keys refused.
type createSessionRequest struct {
	// ID names the session; empty assigns a random one.
	ID string `json:"id"`
	// SweepMS is the reader cadence in milliseconds for sessions that
	// know it up front; ingest-fed sessions may leave it 0 and let the
	// first reader Hello announce it.
	SweepMS float64 `json:"sweep_ms"`
	// Geometry names the session's antenna geometry (deploy registry
	// name); empty selects the default deployment.
	Geometry string `json:"geometry,omitempty"`
	// Search overrides the deployment's vote-search configuration for
	// this session (recorded in the WAL, honored by recovery and
	// retrace).
	Search *SearchJSON `json:"search,omitempty"`
}

// decodeBody decodes a JSON request body onto v. An empty body leaves v
// as it is; a malformed one, or one with a key v does not have (a typo,
// or a field this daemon no longer has), is an ErrBadSpec, never a
// silent no-op.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: bad request body: %v", ErrBadSpec, err)
	}
	return nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeSessionError(w, err)
		return
	}
	if _, err := deploy.GeometryByName(req.Geometry); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	search, err := req.Search.config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	sess, err := s.reg.Open(SessionSpec{
		ID:       req.ID,
		Sweep:    time.Duration(req.SweepMS * float64(time.Millisecond)),
		Geometry: req.Geometry,
		Search:   search,
	})
	if err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{
		"id":     sess.ID,
		"ingest": s.IngestAddr(),
		"stream": "/v1/sessions/" + sess.ID + "/stream",
	})
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	out := make([]sessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, s.info(sess))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	writeJSON(w, http.StatusOK, s.info(sess))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Remove(r.PathValue("id")) {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// streamTier resolves the stream endpoint's trace tier from the ?tier
// query parameter: 0 (thinned dashboard grade), 1 (the full default
// stream) or 2 (full plus diagnostic detail). Absent means T1, the
// compatibility default; anything else is an error.
func streamTier(r *http.Request) (SubscribeTier, error) {
	switch t := r.URL.Query().Get("tier"); t {
	case "", "1":
		return Tier1, nil
	case "0":
		return Tier0, nil
	case "2":
		return Tier2, nil
	default:
		return Tier1, fmt.Errorf("unknown tier %q (want 0, 1 or 2)", t)
	}
}

// streamEncoding resolves the stream endpoint's wire encoding: the
// ?encoding query parameter (ndjson | binary) wins, else an Accept
// header naming the binary media type selects binary, else NDJSON (the
// compatibility default). An unknown ?encoding value is an error.
func streamEncoding(r *http.Request) (subEncoding, error) {
	switch enc := r.URL.Query().Get("encoding"); enc {
	case "":
		// Fall through to Accept negotiation.
	case "ndjson":
		return encNDJSON, nil
	case "binary":
		return encBinary, nil
	default:
		return encNDJSON, fmt.Errorf("unknown encoding %q (want ndjson or binary)", enc)
	}
	if strings.Contains(r.Header.Get("Accept"), EventStreamContentType) {
		return encBinary, nil
	}
	return encNDJSON, nil
}

// handleStream is the live delivery path: a chunked stream of the
// session's events — NDJSON (one JSON object per line) by default, or
// the length-prefixed CRC-framed binary encoding when negotiated via
// ?encoding=binary or Accept (see eventwire.go) — flushed as events
// arrive. ?tier=0|1|2 negotiates the trace tier (T1, today's full
// stream, is the default); a subscriber that falls far enough behind is
// adaptively stepped down a tier — announced in-stream with a "tier"
// control event — and stepped back up after sustained calm. The
// subscriber's queue is bounded; if this consumer still cannot keep up
// it loses the oldest events and sees drop notices (the last-resort
// slow-consumer policy), never stalling the tracker or its peers.
// Every queue item arrives already encoded: live events group-committed
// by the session's loop, which encodes each batch exactly once
// per encoding and shares the immutable bytes with every stream writer,
// and catch-up replays and notices encoded for this subscriber. The
// writer only writes bytes — one Write per item.
//
// With ?from=seq (WAL-backed sessions) the subscriber first catches up
// from the session's recorded history — the events of its tier that log
// records with sequence ≥ seq (0 = everything) produced — and is then
// spliced onto the live stream without gap or duplicate. On a recovered
// session the stream is the replay alone, ending with an "end" event;
// recovered sessions always serve this way, with or without the
// parameter.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	encoding, err := streamEncoding(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	tier, err := streamTier(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	opts := SubscribeOptions{Tier: tier, encoding: encoding}
	var sub *Subscriber
	if fromStr := r.URL.Query().Get("from"); fromStr != "" || sess.Recovered() {
		from := uint64(0)
		if fromStr != "" {
			from, err = strconv.ParseUint(fromStr, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request", "bad from: "+err.Error())
				return
			}
		}
		sub, err = sess.SubscribeFrom(from, opts)
	} else {
		sub, err = sess.Subscribe(opts)
	}
	if err != nil {
		writeSessionError(w, err)
		return
	}
	defer sub.Close()
	binary := encoding == encBinary
	flusher, _ := w.(http.Flusher)
	if binary {
		w.Header().Set("Content-Type", EventStreamContentType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	pipeline := s.reg.Pipeline()
	ctx := r.Context()
	for unflushed := 0; ; {
		select {
		case b, ok := <-sub.ch:
			if !ok {
				return
			}
			if b.enq > 0 {
				pipeline.ObserveStage(obs.StageWrite, obs.Now()-b.enq, sess.stripe)
			}
			out := b.ndjson
			if binary {
				out = b.binary
			}
			if _, err := w.Write(out); err != nil {
				return
			}
			// Write whatever else is queued, up to 256 more batches,
			// before paying for a flush.
			if unflushed++; len(sub.ch) > 0 && unflushed <= 256 {
				continue
			}
			unflushed = 0
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			return
		}
	}
}

// handleTrace dumps a session's sampled spans as NDJSON, oldest first —
// one line per span, each a full stage-by-stage timing of one report.
// Sampling is off until the trace_sample_n control knob is set.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, sp := range sess.Spans() {
		if err := enc.Encode(sp); err != nil {
			return
		}
	}
}

// sessionEvents is the GET /v1/sessions/{id}/events response shape.
type sessionEvents struct {
	ID string `json:"id"`
	// Total counts every event ever recorded, including ones the bounded
	// ring has evicted.
	Total  uint64              `json:"total"`
	Events []obs.TimelineEvent `json:"events"`
}

// handleEvents serves a session's diagnostic timeline: the bounded ring
// of lifecycle and anomaly events, oldest first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	evs := sess.Events()
	if evs == nil {
		evs = []obs.TimelineEvent{}
	}
	writeJSON(w, http.StatusOK, sessionEvents{ID: sess.ID, Total: sess.EventTotal(), Events: evs})
}

// retraceRequest is the POST /v1/sessions/{id}/retrace body; everything
// optional, unknown keys refused. An empty body re-traces under the
// deployment's configuration (and the result is then byte-equivalent to
// the live trace).
type retraceRequest struct {
	Search *SearchJSON `json:"search,omitempty"`
}

// SearchJSON is the JSON shape of a SearchConfig override.
type SearchJSON struct {
	// Mode is "hierarchical" (default) or "dense".
	Mode   string `json:"mode"`
	TopK   int    `json:"top_k"`
	Levels int    `json:"levels"`
}

func (o *SearchJSON) config() (*vote.SearchConfig, error) {
	if o == nil {
		return nil, nil
	}
	sc := &vote.SearchConfig{TopK: o.TopK, Levels: o.Levels}
	switch o.Mode {
	case "", "hierarchical":
		sc.Mode = vote.SearchHierarchical
	case "dense":
		sc.Mode = vote.SearchDense
	default:
		return nil, fmt.Errorf("unknown search mode %q", o.Mode)
	}
	return sc, nil
}

// RetraceSummary carries one retrace run's per-tag results: the JSON
// the retrace endpoint serves and the shape Client.Retrace decodes —
// one declaration, so server and client cannot drift.
type RetraceSummary struct {
	ID string `json:"id"`
	// Records is the log head sequence the retrace covered.
	Records uint64               `json:"records"`
	Tags    []RetracedTagSummary `json:"tags"`
}

// RetracedTagSummary is one tag's outcome within a RetraceSummary.
type RetracedTagSummary struct {
	Tag string `json:"tag"`
	// Chosen indexes the selected hypothesis among the candidates.
	Chosen         int              `json:"chosen"`
	Initial        PointJSON        `json:"initial"`
	LeaderSwitches int              `json:"leader_switches"`
	Retirements    int              `json:"retirements"`
	Points         []TracePointJSON `json:"points"`
	Err            string           `json:"err,omitempty"`
}

// PointJSON is an (x, z) writing-plane position on the JSON API.
type PointJSON struct {
	X float64 `json:"x"`
	Z float64 `json:"z"`
}

// TracePointJSON is one timed trajectory point on the JSON API.
type TracePointJSON struct {
	T time.Duration `json:"t_ns"`
	X float64       `json:"x"`
	Z float64       `json:"z"`
}

// handleRetrace replays a session's WAL through a fresh tracking
// pipeline — optionally under an overridden SearchConfig — and returns
// batch results for every recorded tag. Works on live sessions (the
// session drains first, so the retrace covers everything ingested so far)
// and on recovered ones.
func (s *Server) handleRetrace(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	var req retraceRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeSessionError(w, err)
		return
	}
	search, err := req.Search.config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	results, head, err := sess.Retrace(search)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RetraceSummary{ID: sess.ID, Records: head, Tags: RetracedTags(results)})
}

// RetracedTags summarizes retrace results per tag: the shape the
// retrace endpoint serves and rfidraw replay prints.
func RetracedTags(results []engine.TagResult) []RetracedTagSummary {
	tags := make([]RetracedTagSummary, 0, len(results))
	for _, res := range results {
		tag := RetracedTagSummary{Tag: res.Tag}
		if res.Err != nil {
			tag.Err = res.Err.Error()
			tags = append(tags, tag)
			continue
		}
		tag.Chosen = res.Result.BestIndex
		init := res.Result.InitialPosition()
		tag.Initial = PointJSON{X: init.X, Z: init.Z}
		tag.LeaderSwitches = res.Result.LeaderSwitches
		tag.Retirements = res.Result.Retirements
		for _, p := range res.Result.Best.Trajectory.Points {
			tag.Points = append(tag.Points, TracePointJSON{T: p.T, X: p.Pos.X, Z: p.Pos.Z})
		}
		tags = append(tags, tag)
	}
	return tags
}
