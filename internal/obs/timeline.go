package obs

import (
	"sync"
	"time"
)

// TimelineEvent is one structured lifecycle or anomaly event on a
// session's diagnostic timeline.
type TimelineEvent struct {
	Wall   time.Time `json:"at"`
	Type   string    `json:"type"`
	Detail string    `json:"detail,omitempty"`
}

// Timeline event types. Kept as plain strings on the wire; these
// constants exist so producers and tests agree on spelling.
const (
	EventCreate       = "create"
	EventRecover      = "recover"
	EventPark         = "park"
	EventResume       = "resume"
	EventRetrace      = "retrace"
	EventWALRotate    = "wal_rotate"
	EventResync       = "resync"
	EventShed         = "shed"
	EventLeaderSwitch = "leader_switch"
	EventTierChange   = "tier_change"
)

// TimelineCapacity bounds each session's event ring.
const TimelineCapacity = 128

// Timeline is a bounded ring of diagnostic events. Producers are
// lifecycle paths (not per-report), so a mutex is fine.
type Timeline struct {
	mu   sync.Mutex
	ring ring[TimelineEvent]
}

// Record appends an event, evicting the oldest when full.
func (t *Timeline) Record(typ, detail string) {
	t.mu.Lock()
	t.ring.add(TimelineEvent{Wall: time.Now(), Type: typ, Detail: detail}, TimelineCapacity)
	t.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (t *Timeline) Snapshot() []TimelineEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.snapshot()
}

// Total counts every event ever recorded, including evicted ones.
func (t *Timeline) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.total
}

// Last returns the most recent event and true, or false when empty.
func (t *Timeline) Last() (TimelineEvent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.last()
}

// ring is the storage behind SpanRing and Timeline: a FIFO that grows
// on demand up to its capacity and then overwrites its oldest entry, so
// an owner that records little (a restart-recovered session never
// samples a span) holds little. Callers serialize access.
type ring[T any] struct {
	items []T
	// total counts every add; once the ring is full, total modulo its
	// length indexes the oldest entry.
	total uint64
}

func (r *ring[T]) add(v T, capacity int) {
	if len(r.items) < capacity {
		r.items = append(r.items, v)
	} else {
		r.items[r.total%uint64(len(r.items))] = v
	}
	r.total++
}

// snapshot copies the retained entries, oldest first.
func (r *ring[T]) snapshot() []T {
	start := 0
	if len(r.items) > 0 {
		start = int(r.total % uint64(len(r.items)))
	}
	out := make([]T, 0, len(r.items))
	out = append(out, r.items[start:]...)
	return append(out, r.items[:start]...)
}

func (r *ring[T]) last() (T, bool) {
	if len(r.items) == 0 {
		var zero T
		return zero, false
	}
	return r.items[(r.total-1)%uint64(len(r.items))], true
}
