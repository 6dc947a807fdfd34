package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"rfidraw/internal/vote"
)

// This file is the operator control plane over the admission layer in
// cost.go/registry.go: inspect the node's congestion state and every
// session's cost, mutate the runtime knobs without a restart, and drive
// explicit drain/park/resume lifecycle verbs — the surface a dispatch
// tier routes on once nodes are clustered.

// ControlState is the GET /v1/control response: the node's congestion
// state, its runtime knobs, and every session's cost.
type ControlState struct {
	// Score is the current congestion score with its per-resource
	// component breakdown, refreshed for this request.
	Score NodeScore `json:"score"`
	// ShedThreshold and ParkThreshold are the score levels at which
	// admission 429s and the pressure loop parks (<= 0 = disabled).
	ShedThreshold float64 `json:"shed_threshold"`
	ParkThreshold float64 `json:"park_threshold"`
	// Capacity is the score's normalization basis.
	Capacity Capacity `json:"capacity"`
	// IdleMS / RetainMS are the lifecycle deadlines (retain 0 = forever).
	IdleMS   int64 `json:"idle_ms"`
	RetainMS int64 `json:"retain_ms"`
	// WALSyncEvery is the default report-append fsync cadence for new
	// session logs (0 = store default).
	WALSyncEvery int `json:"wal_sync_every"`
	// Search is the default vote-search for new sessions (null =
	// deployment default).
	Search *SearchJSON `json:"search"`
	// TraceSampleN is the span-sampling cadence (1-in-N reports per
	// session record a full stage span; 0 = off).
	TraceSampleN int `json:"trace_sample_n"`
	// LogLevel is the structured-logging level gate.
	LogLevel string `json:"log_level"`
	// MaxSessions / Live / Parked are the admission head-count facts.
	MaxSessions int `json:"max_sessions"`
	Live        int `json:"live"`
	Parked      int `json:"parked"`
	// Sessions is every registry entry's control view, sorted by ID.
	Sessions []ControlSession `json:"sessions"`
}

// ControlSession is one session's control-plane view: lifecycle state
// plus the demand signal the park policy orders it by.
type ControlSession struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Geometry and Search pin what the session's pipeline was built
	// from.
	Geometry string       `json:"geometry,omitempty"`
	Search   *SearchJSON  `json:"search,omitempty"`
	WALSeq   uint64       `json:"wal_seq,omitempty"`
	IdleMS   int64        `json:"idle_ms"`
	Cost     CostSnapshot `json:"cost"`
	// Events counts the session's diagnostic-timeline entries (including
	// evicted ones); LastEvent summarizes the most recent as "type" or
	// "type: detail". GET /v1/sessions/{id}/events serves the full ring.
	Events    uint64 `json:"events,omitempty"`
	LastEvent string `json:"last_event,omitempty"`
	// Spans counts the session's sampled stage traces; GET
	// /v1/sessions/{id}/trace dumps the retained ring as NDJSON.
	Spans uint64 `json:"spans,omitempty"`
}

// ControlPatchJSON is the POST /v1/control/config body: every field
// optional, absent fields keep their value (KnobPatch semantics).
type ControlPatchJSON struct {
	IdleMS        *int64    `json:"idle_ms"`
	RetainMS      *int64    `json:"retain_ms"`
	ShedThreshold *float64  `json:"shed_threshold"`
	ParkThreshold *float64  `json:"park_threshold"`
	Capacity      *Capacity `json:"capacity"`
	WALSyncEvery  *int      `json:"wal_sync_every"`
	// Search replaces the default-search knob; {"mode": "default"}
	// clears it back to the deployment default.
	Search *SearchJSON `json:"search"`
	// TraceSampleN sets the span-sampling cadence (0 disables).
	TraceSampleN *int `json:"trace_sample_n"`
	// LogLevel sets the logging level gate ("debug", "info", "warn",
	// "error").
	LogLevel *string `json:"log_level"`
}

// toSearchJSON renders a search configuration in the same shape
// the create and retrace requests accept (nil stays nil).
func toSearchJSON(sc *vote.SearchConfig) *SearchJSON {
	if sc == nil {
		return nil
	}
	mode := "hierarchical"
	if sc.Mode == vote.SearchDense {
		mode = "dense"
	}
	return &SearchJSON{Mode: mode, TopK: sc.TopK, Levels: sc.Levels}
}

func (s *Server) controlState(now time.Time) ControlState {
	score := s.reg.RefreshCongestion(now)
	knobs := s.reg.Knobs()
	st := ControlState{
		Score:         score,
		ShedThreshold: knobs.ShedThreshold,
		ParkThreshold: knobs.ParkThreshold,
		Capacity:      knobs.Capacity,
		IdleMS:        knobs.IdleTimeout.Milliseconds(),
		RetainMS:      knobs.RetainFor.Milliseconds(),
		WALSyncEvery:  knobs.WALSyncEvery,
		Search:        toSearchJSON(knobs.Search),
		TraceSampleN:  knobs.TraceSampleN,
		LogLevel:      knobs.LogLevel,
		MaxSessions:   s.reg.cfg.MaxSessions,
	}
	for _, sess := range s.reg.List() {
		state := sess.State()
		switch state {
		case "live":
			st.Live++
		case "recovered":
			st.Parked++
		}
		cs := ControlSession{
			ID:       sess.ID,
			State:    state,
			Geometry: sess.geometry,
			Search:   toSearchJSON(sess.Search()),
			WALSeq:   sess.WALSeq(),
			IdleMS:   now.Sub(sess.idleSince()).Milliseconds(),
			Cost:     sess.Cost(),
			Events:   sess.EventTotal(),
			Spans:    sess.SpanTotal(),
		}
		if last, ok := sess.LastEvent(); ok {
			cs.LastEvent = last.Type
			if last.Detail != "" {
				cs.LastEvent += ": " + last.Detail
			}
		}
		st.Sessions = append(st.Sessions, cs)
	}
	return st
}

func (s *Server) handleControl(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.controlState(time.Now()))
}

func (s *Server) handleControlConfig(w http.ResponseWriter, r *http.Request) {
	var req ControlPatchJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	var patch KnobPatch
	if req.IdleMS != nil {
		d := time.Duration(*req.IdleMS) * time.Millisecond
		patch.IdleTimeout = &d
	}
	if req.RetainMS != nil {
		d := time.Duration(*req.RetainMS) * time.Millisecond
		patch.RetainFor = &d
	}
	patch.ShedThreshold = req.ShedThreshold
	patch.ParkThreshold = req.ParkThreshold
	patch.Capacity = req.Capacity
	patch.WALSyncEvery = req.WALSyncEvery
	patch.TraceSampleN = req.TraceSampleN
	patch.LogLevel = req.LogLevel
	if req.Search != nil {
		patch.SetSearch = true
		if req.Search.Mode != "default" {
			sc, err := req.Search.config()
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request", err.Error())
				return
			}
			patch.Search = sc
		}
	}
	if err := s.reg.ApplyKnobs(patch); err != nil {
		writeSessionError(w, err)
		return
	}
	// Answer with the post-mutation state so mutate → inspect is one
	// round trip and the caller sees exactly what took effect.
	writeJSON(w, http.StatusOK, s.controlState(time.Now()))
}

// handlePark parks one live durable session (explicit load shedding:
// engine reclaimed, record retained and resumable). Idempotent.
func (s *Server) handlePark(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.reg.Park(id); err != nil {
		writeSessionError(w, err)
		return
	}
	sess, ok := s.reg.Get(id)
	if !ok {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "state": sess.State(), "wal_seq": sess.WALSeq(),
	})
}

// handleResume brings a parked session back live, its log appending
// past the retained head.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, err := s.reg.Resume(id)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "state": sess.State(), "resumed_from": sess.resumeFrom,
		"ingest": s.IngestAddr(),
		"stream": "/v1/sessions/" + id + "/stream",
	})
}

// handleDrain flushes a live session: the reorder buffer empties, open
// sweeps close and the final positions reach subscribers and the WAL —
// the operator's "make everything durable now" verb (e.g. right before
// a planned park).
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.reg.Get(id)
	if !ok {
		writeSessionError(w, ErrUnknownSession)
		return
	}
	if sess.State() != "live" {
		writeSessionError(w, ErrNotLive)
		return
	}
	if err := sess.Flush(); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "state": sess.State(), "wal_seq": sess.WALSeq(),
	})
}
