package server

import (
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
	// Knobs are the runtime knobs, inlined under their own keys.
	Knobs
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
	st := ControlState{
		Score:       s.reg.RefreshCongestion(now),
		Knobs:       s.reg.Knobs(),
		MaxSessions: s.reg.cfg.MaxSessions,
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

// handleControlConfig patches the runtime knobs: the body is a partial
// Knobs object, decoded onto a copy of the published record (absent keys
// keep their value) and validated whole. An unknown key or an invalid
// value is a 400 and applies nothing.
func (s *Server) handleControlConfig(w http.ResponseWriter, r *http.Request) {
	// Read the body before UpdateKnobs takes its lock, so a slow client
	// never holds up another patch.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	if err := s.reg.UpdateKnobs(body); err != nil {
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
