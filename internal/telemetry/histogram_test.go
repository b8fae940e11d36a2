package telemetry

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestHistogramBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 32, NumBuckets - 1}, {math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramBoundsMonotonic(t *testing.T) {
	prev := -1.0
	for b := 0; b < NumBuckets; b++ {
		ub := BucketUpperNanos(b)
		if !(ub > prev) {
			t.Fatalf("bucket %d upper bound %g not above previous %g", b, ub, prev)
		}
		prev = ub
	}
	if !math.IsInf(BucketUpperNanos(NumBuckets-1), 1) {
		t.Fatalf("last bucket bound must be +Inf, got %g", BucketUpperNanos(NumBuckets-1))
	}
	// Every sample must land in a bucket whose upper bound covers it.
	for _, ns := range []int64{0, 1, 2, 3, 100, 999, 12345, 1 << 30, 1 << 40} {
		b := bucketOf(ns)
		if float64(ns) > BucketUpperNanos(b) {
			t.Errorf("sample %dns lands in bucket %d with bound %g", ns, b, BucketUpperNanos(b))
		}
	}
}

func TestHistogramRecordAndSnapshot(t *testing.T) {
	h := NewHistogram(4)
	samples := []int64{0, 1, 3, 100, 100, 5000, 1 << 20}
	for i, ns := range samples {
		h.RecordNanos(uint64(i), ns)
	}
	s := h.Snapshot()
	if got := s.Count(); got != uint64(len(samples)) {
		t.Fatalf("Count = %d, want %d", got, len(samples))
	}
	if s.Counts[bucketOf(100)] != 2 {
		t.Fatalf("bucket for 100ns holds %d, want 2", s.Counts[bucketOf(100)])
	}
	if sum := s.SumNanos(); sum <= 0 {
		t.Fatalf("SumNanos = %g, want > 0", sum)
	}
	// The p100 must come from the highest occupied bucket.
	if q := s.Quantile(1.0); q < bucketMidNanos(bucketOf(1<<20)) {
		t.Fatalf("Quantile(1.0) = %g, below top bucket midpoint", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) over samples including 0 = %g, want 0", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.SumNanos() != 0 {
		t.Fatal("empty snapshot must report zero quantile and sum")
	}
}

// TestHistogramMergeCorrectness is the stripe merge pin: a sample stream
// spread over eight stripes, merged at snapshot time, must equal a single
// stripe fed everything.
func TestHistogramMergeCorrectness(t *testing.T) {
	single, striped := NewHistogram(1), NewHistogram(8)
	rng := uint64(42)
	for i := 0; i < 10000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		ns := int64(rng >> 34)
		single.RecordNanos(rng, ns)
		striped.RecordNanos(rng, ns)
	}
	if merged := striped.Snapshot(); merged != single.Snapshot() {
		t.Fatalf("merged 8-stripe snapshot differs from single stripe:\nmerged: %v\nsingle: %v",
			merged.Counts, single.Snapshot().Counts)
	}
}

// TestHistogramConcurrent races GOMAXPROCS writers against a scraping
// reader; run under -race in CI's named step. The final snapshot must hold
// every sample.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(runtime.GOMAXPROCS(0))
	const perWriter = 20000
	writers := runtime.GOMAXPROCS(0)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // scraping reader, racing the writers
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot().Count()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.RecordNanos(uint64(w), int64(i%4096))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got, want := h.Snapshot().Count(), uint64(writers*perWriter); got != want {
		t.Fatalf("after concurrent recording Count = %d, want %d", got, want)
	}
}
