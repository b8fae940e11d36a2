package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every latency histogram: bucket 0
// holds non-positive samples (a coarse clock can report 0ns), bucket b in
// [1, NumBuckets-2] holds samples whose nanosecond value has bit length b
// (i.e. ns in [2^(b-1), 2^b)), and the last bucket is the overflow for
// everything at or above 2^(NumBuckets-2) ns (~8.6 s) — rendered as the
// +Inf bucket in the Prometheus exposition.
const NumBuckets = 34

// stripeSize pads each stripe to a multiple of the cache line so concurrent
// recorders on different stripes never false-share a line.
const stripePad = 64 - (NumBuckets*8)%64

// stripe is one recorder lane: a fixed array of per-bucket counters.
type stripe struct {
	counts [NumBuckets]atomic.Uint64
	_      [stripePad]byte
}

// Histogram is a lock-free, fully preallocated log-bucketed latency
// histogram. Recording is one atomic add into a power-of-two nanosecond
// bucket; concurrent recorders spread across independent cache-line-padded
// stripes selected by a caller-supplied hint (a shard index, a core index,
// or the sample's own low bits), and a scrape merges the stripes into one
// HistogramSnapshot. There is no sum register on the write path — the
// Prometheus _sum is derived at scrape time from bucket midpoints — so the
// hot-path cost is exactly one uncontended atomic add and zero allocations.
type Histogram struct {
	stripes []stripe
	mask    uint64
}

// NewHistogram builds a histogram with the given stripe count, rounded up
// to a power of two (minimum 1).
func NewHistogram(stripes int) *Histogram {
	n := 1
	for n < stripes {
		n <<= 1
	}
	return &Histogram{stripes: make([]stripe, n), mask: uint64(n - 1)}
}

// bucketOf maps a nanosecond latency to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// RecordNanos records one latency sample. hint selects the stripe (any
// value works; recorders with a natural identity — a worker index, a core
// index — should pass it so they keep hitting the same cache line, and
// everyone else can pass the sample's own nanosecond value as a free
// pseudo-random spreader). One atomic add, no allocation.
func (h *Histogram) RecordNanos(hint uint64, ns int64) {
	h.stripes[hint&h.mask].counts[bucketOf(ns)].Add(1)
}

// Snapshot merges every stripe into one point-in-time bucket vector. The
// merge reads each counter once with an atomic load; under concurrent
// recording the result is a consistent-enough scrape (each bucket is exact
// at its own read point), the usual Prometheus contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := 0; b < NumBuckets; b++ {
			s.Counts[b] += st.counts[b].Load()
		}
	}
	return s
}

// HistogramSnapshot is a merged point-in-time view of one or more
// histograms: a plain bucket vector plus derived aggregates.
type HistogramSnapshot struct {
	Counts [NumBuckets]uint64
}

// Merge adds another snapshot's buckets into s (per-shard instances merged
// at scrape time).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for b := 0; b < NumBuckets; b++ {
		s.Counts[b] += o.Counts[b]
	}
}

// Count returns the total number of recorded samples.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for b := 0; b < NumBuckets; b++ {
		n += s.Counts[b]
	}
	return n
}

// bucketMidNanos is the representative latency of one bucket: the midpoint
// of [2^(b-1), 2^b) for interior buckets, 0 for the non-positive bucket,
// and 1.5x the lower bound for the overflow bucket.
func bucketMidNanos(b int) float64 {
	switch {
	case b <= 0:
		return 0
	case b == 1:
		return 1
	default:
		return float64(uint64(3) << (b - 2))
	}
}

// SumNanos returns the approximate sum of all recorded samples in
// nanoseconds, derived from bucket midpoints (the write path keeps no sum
// register). The approximation error is bounded by the half-width of each
// power-of-two bucket, i.e. under 50% per sample and far less in aggregate.
func (s HistogramSnapshot) SumNanos() float64 {
	var sum float64
	for b := 0; b < NumBuckets; b++ {
		if c := s.Counts[b]; c != 0 {
			sum += float64(c) * bucketMidNanos(b)
		}
	}
	return sum
}

// Quantile returns the latency in nanoseconds at quantile q in [0, 1],
// interpolated to the representative midpoint of the bucket holding the
// rank. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		cum += s.Counts[b]
		if cum >= rank {
			return bucketMidNanos(b)
		}
	}
	return bucketMidNanos(NumBuckets - 1)
}

// BucketUpperNanos returns bucket b's inclusive upper bound in nanoseconds
// (2^b - 1), or +Inf for the overflow bucket. The bounds are strictly
// increasing, which is what the Prometheus `le` labels render.
func BucketUpperNanos(b int) float64 {
	if b >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(b) - 1)
}
