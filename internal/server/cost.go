package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the demand-signal side of admission control: per-session
// cost tracking and the node-level congestion score it rolls up into.
// The design follows the enhanced-VIP idea of driving forwarding and
// congestion decisions from per-object demand counters rather than flat
// caps: every session meters the rates that actually consume this node
// (search evaluations, WAL bandwidth, subscriber backlog, reorder-late
// pressure), each rate is normalized by a configurable capacity, and
// the worst normalized component is the node's congestion score.
// Admission sheds (HTTP 429 + Retry-After) at ShedThreshold; the
// pressure loop parks the lowest-cost durable sessions at ParkThreshold
// so the node degrades by shedding state it can rebuild from disk
// instead of collapsing.

// ErrOverloaded reports an open refused by the congestion score (as
// opposed to the hard MaxSessions cap, which is ErrSessionLimit). It is
// surfaced as HTTP 429 with a Retry-After.
var ErrOverloaded = errors.New("server: node overloaded")

// OverloadError carries the score and suggested backoff behind an
// ErrOverloaded refusal.
type OverloadError struct {
	// Score is the congestion score at refusal time.
	Score float64
	// RetryAfter is the suggested client backoff, scaled by how far past
	// the shed threshold the node is.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: node overloaded (congestion %.2f, retry after %s)", e.Score, e.RetryAfter)
}

// Unwrap lets errors.Is(err, ErrOverloaded) classify the refusal.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// retryAfterFor suggests a backoff proportional to the overshoot past
// the shed threshold: just past it, half a second; deep overload, up to
// five seconds. Clients that honor it spread their retries across the
// window the pressure loop needs to park sessions and recover headroom.
func retryAfterFor(score, shedAt float64) time.Duration {
	over := score - shedAt
	if over < 0 {
		over = 0
	}
	d := time.Duration((0.5 + 2*over) * float64(time.Second))
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// Capacity calibrates the congestion score: each per-session rate is
// normalized by the matching capacity before the components are
// combined. Zero fields take generous defaults sized so a lightly
// loaded node never sheds.
type Capacity struct {
	// SearchEvalsPerSec is the node's vote-surface evaluation budget.
	// Default 5e6/s.
	SearchEvalsPerSec float64 `json:"search_evals_per_sec"`
	// WALBytesPerSec is the node's durability write budget. Default
	// 64 MiB/s.
	WALBytesPerSec float64 `json:"wal_bytes_per_sec"`
	// LatePerSec bounds tolerated reorder-late deliveries (reports
	// reaching engines behind later-stamped ones — sustained lateness
	// means the node can no longer hold its reorder windows). Default
	// 10000/s.
	LatePerSec float64 `json:"late_per_sec"`
	// Backlog is the tolerated worst-subscriber queue fill fraction in
	// [0, 1]. Default 0.75.
	Backlog float64 `json:"backlog"`
	// DowngradesPerSec bounds tolerated adaptive tier step-downs across
	// the node's subscribers — sustained downgrades mean fan-out demand
	// outruns what consumers can drain even at reduced stream weight.
	// Default 50/s.
	DowngradesPerSec float64 `json:"downgrades_per_sec"`
}

func (c Capacity) withDefaults() Capacity {
	if c.SearchEvalsPerSec <= 0 {
		c.SearchEvalsPerSec = 5e6
	}
	if c.WALBytesPerSec <= 0 {
		c.WALBytesPerSec = 64 << 20
	}
	if c.LatePerSec <= 0 {
		c.LatePerSec = 10000
	}
	if c.Backlog <= 0 {
		c.Backlog = 0.75
	}
	if c.DowngradesPerSec <= 0 {
		c.DowngradesPerSec = 50
	}
	return c
}

// CostSnapshot is one session's demand signal: the resource rates it
// drew between the last two samples, plus the scalar cost the park
// policy orders sessions by (normalized sum — lowest-cost durable
// sessions are parked first, since rebuilding them from their record is
// cheapest relative to the load they shed).
type CostSnapshot struct {
	EvalsPerSec    float64 `json:"evals_per_sec"`
	WALBytesPerSec float64 `json:"wal_bytes_per_sec"`
	LatePerSec     float64 `json:"late_per_sec"`
	// Backlog is the fill fraction of the session's fullest subscriber
	// queue at sample time (an instantaneous gauge, not a rate).
	Backlog float64 `json:"backlog"`
	// DowngradesPerSec is the rate of adaptive tier step-downs across the
	// session's subscribers: the fan-out pressure admission should see.
	DowngradesPerSec float64 `json:"downgrades_per_sec"`
	Cost             float64 `json:"cost"`
}

// costMeter turns a session's monotonic counters into rates by
// remembering the previous sample. Samples may come from any goroutine
// (the registry's congestion refresh, the control API); mu serializes
// them.
type costMeter struct {
	mu         sync.Mutex
	at         time.Time
	evals      int64
	wal        int64
	late       int64
	downgrades int64
	last       CostSnapshot
}

// sampleCost refreshes the session's cost snapshot from its counters.
// The first sample (and any zero-dt resample) returns the previous
// snapshot unchanged; counter regressions (Close zeroing the stats
// gauges) clamp to zero instead of going negative.
func (s *Session) sampleCost(now time.Time, cap Capacity) CostSnapshot {
	evals := s.searchEvals.Load()
	wal := s.walBytes.Load()
	late := s.reorderLate.Load()
	downgrades := s.tierDowngrades.Load()
	backlog := s.backlogFraction()
	m := &s.cost
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.at.IsZero() {
		if dt := now.Sub(m.at).Seconds(); dt > 0 {
			snap := CostSnapshot{
				EvalsPerSec:      rate(evals-m.evals, dt),
				WALBytesPerSec:   rate(wal-m.wal, dt),
				LatePerSec:       rate(late-m.late, dt),
				Backlog:          backlog,
				DowngradesPerSec: rate(downgrades-m.downgrades, dt),
			}
			snap.Cost = snap.EvalsPerSec/cap.SearchEvalsPerSec +
				snap.WALBytesPerSec/cap.WALBytesPerSec +
				snap.LatePerSec/cap.LatePerSec +
				snap.DowngradesPerSec/cap.DowngradesPerSec +
				backlog
			m.last = snap
		}
	}
	m.at, m.evals, m.wal, m.late, m.downgrades = now, evals, wal, late, downgrades
	return m.last
}

// Cost returns the session's last cost snapshot without resampling.
func (s *Session) Cost() CostSnapshot {
	s.cost.mu.Lock()
	defer s.cost.mu.Unlock()
	return s.cost.last
}

func rate(delta int64, dt float64) float64 {
	if delta <= 0 {
		return 0
	}
	return float64(delta) / dt
}

// backlogFraction is the fill fraction of the session's fullest
// subscriber queue — the demand signal for consumers that cannot keep
// up with what this session emits.
func (s *Session) backlogFraction() float64 {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	var worst float64
	for sub := range s.subs {
		if c := cap(sub.ch); c > 0 {
			if f := float64(len(sub.ch)) / float64(c); f > worst {
				worst = f
			}
		}
	}
	return worst
}

// ScoreComponents breaks the congestion score down by demand signal:
// each field is a capacity-normalized load in [0, ∞), and the score is
// their maximum — the node is as congested as its most saturated
// resource.
type ScoreComponents struct {
	SearchEvals float64 `json:"search_evals"`
	WALBytes    float64 `json:"wal_bytes"`
	ReorderLate float64 `json:"reorder_late"`
	Backlog     float64 `json:"backlog"`
	// SessionSlots is live sessions over MaxSessions: the flat cap folded
	// in as one signal among several instead of being the whole policy.
	SessionSlots float64 `json:"session_slots"`
	// TierPressure is the capacity-normalized adaptive-downgrade rate:
	// fan-out demand the consumers are absorbing by stepping down tiers.
	TierPressure float64 `json:"tier_pressure"`
}

// NodeScore is the rolled-up congestion state the admission check and
// the pressure loop act on.
type NodeScore struct {
	Score      float64         `json:"score"`
	Components ScoreComponents `json:"components"`
	SampledAt  time.Time       `json:"-"`
}

func maxScore(parts ScoreComponents) float64 {
	s := parts.SearchEvals
	for _, v := range []float64{parts.WALBytes, parts.ReorderLate, parts.Backlog, parts.SessionSlots, parts.TierPressure} {
		if v > s {
			s = v
		}
	}
	return s
}
