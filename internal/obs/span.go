package obs

import "sync"

// Span is a full stage-by-stage trace of a single sampled report. Stage
// durations are nanoseconds; Wall is the report's wall-clock arrival in
// Unix nanoseconds so spans from different sessions can be correlated.
//
// Arrival/Release are monotonic stamps used while the span is open; the
// exported duration fields are filled as the report crosses each stage.
type Span struct {
	Seq       uint64 `json:"seq"`
	T         int64  `json:"t_ns"`
	Wall      int64  `json:"wall_ns"`
	IngestNs  int64  `json:"ingest_ns"`
	ReorderNs int64  `json:"reorder_ns"`
	WALNs     int64  `json:"wal_ns"`
	OfferNs   int64  `json:"offer_ns"`
	EmitNs    int64  `json:"emit_ns"`
	TotalNs   int64  `json:"total_ns"`

	// Arrival and Release carry the open span's monotonic stamps; they
	// are bookkeeping, not part of the dumped trace.
	Arrival int64 `json:"-"`
	Release int64 `json:"-"`
}

// SpanCapacity bounds each session's sampled-span ring.
const SpanCapacity = 256

// SpanRing is a bounded ring of completed spans. Writers run on the
// sampled (slow) path, so a mutex is fine here.
type SpanRing struct {
	mu   sync.Mutex
	ring ring[Span]
}

// Add appends a completed span, evicting the oldest when full.
func (r *SpanRing) Add(s Span) {
	r.mu.Lock()
	r.ring.add(s, SpanCapacity)
	r.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (r *SpanRing) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.snapshot()
}

// Total counts every span ever recorded, including evicted ones.
func (r *SpanRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.total
}
