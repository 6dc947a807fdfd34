// Package obs is the daemon's always-on observability core: fixed
// exponential-bucket latency histograms built from per-stripe atomic
// counters (zero allocations on the stamping hot path), sampled
// stage-by-stage report spans, bounded per-session diagnostic timelines,
// and the process build identity.
//
// The serving layer stamps every report as it moves through the
// pipeline — ingest decode, reorder release, WAL append, engine offer,
// trace-point emit, subscriber write — and each stamp pair lands in a
// Stage histogram; the decode→emit distance lands in the end-to-end
// histogram. Everything here is wait-free on the write side: a stamp is
// two monotonic clock reads and a handful of atomic adds, so the
// instrumentation can stay on permanently at full ingest rate
// (TestObserveZeroAllocs holds it at 0 allocations).
package obs

import "time"

// base anchors the package's monotonic clock. All Now values are
// nanoseconds since process start, strictly for computing durations —
// never wall time.
var base = time.Now()

// Now returns the monotonic clock in nanoseconds since process start.
// It allocates nothing (time.Since reads the runtime's monotonic clock).
func Now() int64 { return int64(time.Since(base)) }

// Stage names one pipeline segment between two report stamps.
type Stage uint8

const (
	// StageIngest is the wait for the session's ingest lock: from an
	// OfferBatch call to its taking the lock, one interval per call,
	// observed once for each of its reports.
	StageIngest Stage = iota
	// StageReorder is the report's residency in the cross-reader
	// resequencing heap (the hold window plus heap churn) and then in the
	// session's batch of released reports, until the batch is handed off.
	StageReorder
	// StageWALAppend is the synchronous append and commit of the
	// report's released batch into the session's write-ahead log: one
	// interval per batch, observed once for each of its reports.
	StageWALAppend
	// StageEngineOffer is the synchronous hand-off of the report's
	// released batch into the tracking engine (one message per shard),
	// observed once for each of its reports.
	StageEngineOffer
	// StageEmit is from reorder release to the trace point reaching the
	// subscriber queues: the engine's compute latency plus the broadcast.
	StageEmit
	// StageWrite is from subscriber enqueue to the HTTP stream handler
	// encoding the event onto the wire.
	StageWrite

	// NumStages counts the pipeline segments.
	NumStages = int(StageWrite) + 1
)

// stageNames are the Prometheus label values, index-aligned with the
// Stage constants.
var stageNames = [NumStages]string{
	"ingest", "reorder", "wal_append", "engine_offer", "emit", "write",
}

// String returns the stage's metric label.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in pipeline order (for rendering and tests).
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}
