package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of finite histogram buckets. Bucket i has an
// upper bound of 1µs·2^i, so the finite range spans 1µs to ~67s; samples
// beyond that land only in the implicit +Inf bucket.
const NumBuckets = 26

// NumStripes spreads the atomic counters across independent cache lines
// so concurrent stampers (ingesting sessions, engine shards, stream writers)
// don't serialize on one set of words.
const NumStripes = 4

// BucketBound returns bucket i's upper bound in seconds.
func BucketBound(i int) float64 {
	return float64(uint64(1)<<uint(i)) * 1e-6
}

// bucketIndex maps a duration in nanoseconds to its bucket, or
// NumBuckets for the +Inf overflow slot. Bounds are inclusive
// (Prometheus `le` semantics): 1000ns → bucket 0, 1001ns → bucket 1.
func bucketIndex(ns int64) int {
	if ns <= 1000 {
		return 0
	}
	idx := bits.Len64(uint64(ns-1) / 1000)
	if idx > NumBuckets {
		return NumBuckets
	}
	return idx
}

// stripe is one independent copy of the bucket counters, padded to keep
// neighbouring stripes out of each other's cache lines.
type stripe struct {
	counts [NumBuckets + 1]atomic.Uint64
	sumNs  atomic.Int64
	_      [64]byte
}

// Histogram is a fixed exponential-bucket latency histogram. The zero
// value is ready to use. Observe and ObserveN are wait-free and
// allocation-free.
type Histogram struct {
	stripes [NumStripes]stripe
}

// Observe records one duration. hint selects the counter stripe — pass
// any stable small integer (shard ID, session stripe) to spread
// contention; it does not need to be bounded.
func (h *Histogram) Observe(ns int64, hint int) {
	if ns < 0 {
		ns = 0
	}
	s := &h.stripes[uint(hint)%NumStripes]
	s.counts[bucketIndex(ns)].Add(1)
	s.sumNs.Add(ns)
}

// ObserveN records n samples of one duration, as n calls of Observe
// would, with one bucket add and one sum add: for stampers that time a
// whole batch once and count each of its items. n <= 0 records nothing.
func (h *Histogram) ObserveN(ns int64, n int, hint int) {
	if n <= 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	s := &h.stripes[uint(hint)%NumStripes]
	s.counts[bucketIndex(ns)].Add(uint64(n))
	s.sumNs.Add(ns * int64(n))
}

// HistogramSnapshot is a merged, cumulative view of a Histogram, shaped
// for Prometheus exposition: Buckets[i] counts samples ≤ BucketBound(i),
// Count includes the +Inf overflow, SumSeconds is the total observed time.
type HistogramSnapshot struct {
	Buckets    [NumBuckets]uint64
	Count      uint64
	SumSeconds float64
}

// Snapshot merges the stripes into cumulative bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var raw [NumBuckets + 1]uint64
	var sumNs int64
	for i := range h.stripes {
		s := &h.stripes[i]
		for b := range raw {
			raw[b] += s.counts[b].Load()
		}
		sumNs += s.sumNs.Load()
	}
	var snap HistogramSnapshot
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		cum += raw[b]
		snap.Buckets[b] = cum
	}
	snap.Count = cum + raw[NumBuckets]
	snap.SumSeconds = float64(sumNs) * 1e-9
	return snap
}

// Quantile returns an interpolated quantile (q in [0,1]) in seconds from
// the snapshot, using the same linear-within-bucket estimate Prometheus
// applies to histogram_quantile. Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var prevCum uint64
	for b := 0; b < NumBuckets; b++ {
		cum := s.Buckets[b]
		if float64(cum) >= rank {
			lower := 0.0
			if b > 0 {
				lower = BucketBound(b - 1)
			}
			upper := BucketBound(b)
			inBucket := float64(cum - prevCum)
			if inBucket == 0 {
				return upper
			}
			return lower + (upper-lower)*((rank-float64(prevCum))/inBucket)
		}
		prevCum = cum
	}
	// Rank falls in +Inf: clamp to the largest finite bound.
	return BucketBound(NumBuckets - 1)
}
