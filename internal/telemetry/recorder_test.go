package telemetry

import (
	"runtime"
	"sync"
	"testing"
)

func TestRecorderRoundTrip(t *testing.T) {
	tel := New()
	tel.Slow = NewRecorder(16)
	tbl := tel.Intern("default")
	be := tel.Intern("hicuts")
	tel.Slow.Record(Sample{
		UnixNanos: 12345, LatencyNanos: 9000,
		TableID: tbl, BackendID: be, PathID: PathSingle,
		Packets: 1, Visits: 37, RuleID: 7, Version: 3,
		CacheHit: false, OverlayWinner: true, Matched: true,
	})
	es := tel.SlowEntries()
	if len(es) != 1 {
		t.Fatalf("got %d entries, want 1", len(es))
	}
	e := es[0]
	if e.Table != "default" || e.Backend != "hicuts" || e.Path != "single" {
		t.Fatalf("string round-trip failed: %+v", e)
	}
	if e.LatencyNanos != 9000 || e.UnixNanos != 12345 || e.Packets != 1 ||
		e.Visits != 37 || e.RuleID != 7 || e.Version != 3 {
		t.Fatalf("scalar round-trip failed: %+v", e)
	}
	if e.CacheHit || !e.OverlayWinner || !e.Matched {
		t.Fatalf("flag round-trip failed: %+v", e)
	}
	if e.DepthBucket != 6 { // 37 has bit length 6
		t.Fatalf("DepthBucket = %d, want 6", e.DepthBucket)
	}
	if tel.Slow.Captured() != 1 {
		t.Fatalf("Captured = %d, want 1", tel.Slow.Captured())
	}
}

func TestRecorderWrapKeepsMostRecent(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 100; i++ {
		r.Record(Sample{LatencyNanos: int64(i)})
	}
	es := r.entries(func(uint32) string { return "" })
	if len(es) != 16 {
		t.Fatalf("ring of 16 holds %d entries after wrap", len(es))
	}
	// Worst-first ordering, and only the most recent 16 survive.
	for i, e := range es {
		if want := int64(99 - i); e.LatencyNanos != want {
			t.Fatalf("entry %d latency %d, want %d", i, e.LatencyNanos, want)
		}
	}
	if r.Captured() != 100 {
		t.Fatalf("Captured = %d, want 100", r.Captured())
	}
}

func TestRecorderThreshold(t *testing.T) {
	tel := New()
	if tel.SlowEnough(1) {
		t.Fatal("recorder must start disabled")
	}
	tel.SetSlowThreshold(0)
	if !tel.SlowEnough(0) || !tel.SlowEnough(1) {
		t.Fatal("threshold 0 must capture everything")
	}
	tel.SetSlowThreshold(1000)
	if tel.SlowEnough(999) || !tel.SlowEnough(1000) {
		t.Fatal("threshold must be inclusive at the bound")
	}
	tel.SetSlowThreshold(-1)
	if tel.SlowEnough(1 << 40) {
		t.Fatal("negative threshold must disable capture")
	}
	var nilTel *Telemetry
	if nilTel.SlowEnough(1) {
		t.Fatal("nil Telemetry must never capture")
	}
	if nilTel.SlowThresholdNanos() >= 0 {
		t.Fatal("nil Telemetry must report a disabled threshold")
	}
	if nilTel.SlowEntries() != nil || nilTel.Families() != nil {
		t.Fatal("nil Telemetry must dump empty")
	}
}

// TestRecorderConcurrent races writers against a dumping reader; the
// seqlock protocol must keep every dumped entry internally consistent
// (latency mirrored into RuleID must match). Run under -race in CI.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	writers := runtime.GOMAXPROCS(0)
	const perWriter = 5000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	bad := make(chan string, 1)
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range r.entries(func(uint32) string { return "" }) {
					if int64(e.RuleID) != e.LatencyNanos {
						select {
						case bad <- "torn entry: RuleID does not mirror latency":
						default:
						}
						return
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				r.Record(Sample{LatencyNanos: v, RuleID: int32(v)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
	if got, want := r.Captured(), uint64(writers*perWriter); got != want {
		t.Fatalf("Captured = %d, want %d", got, want)
	}
}
