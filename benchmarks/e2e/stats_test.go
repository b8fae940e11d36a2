package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 50}, {0.99, 99}, {1.00, 100}, {0.001, 1}, {0.995, 100},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 0.99, 10}, {100, 0.99, 1}, {10, 0.99, 0}, {8000, 0.99, 80}, {0, 0.99, 0}, {1000, 0.5, 500}} {
		if got := samplesBeyond(tc.n, tc.p); got != tc.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{42}); math.Abs(got-42) > 1e-12 {
		t.Errorf("geomean of one cell = %v, want the cell", got)
	}
	if got := geomean([]float64{3, 0, 5}); got != 0 {
		t.Errorf("geomean with a dead cell = %v, want 0", got)
	}
}

func TestQuietEndOfWindows(t *testing.T) {
	// A hundred windows: the sixth best, past a lucky streak at the top and
	// clear of whatever a neighbour did to the rest.
	pps := make([]float64, 100)
	for i := range pps {
		pps[i] = float64(1000 + i) // 1000..1099
	}
	pps[3], pps[40] = 5000, 10 // a freak and a stalled window
	if got := quiet(pps, true, quietEnd); got != 1095 {
		t.Errorf("quiet(pps, higher) = %v, want 1095", got)
	}
	us := make([]float64, 100)
	for i := range us {
		us[i] = float64(200 - i) // 200..101
	}
	if got := quiet(us, false, quietEnd); got != 106 {
		t.Errorf("quiet(us, lower) = %v, want 106", got)
	}
	// update_churn's upper quartile: below the spikes that follow each
	// compaction, above the median.
	if got := quiet(pps, true, 0.25); got != 1075 {
		t.Errorf("quiet(pps, higher, 0.25) = %v, want 1075", got)
	}
	// Five windows (a paper_grid cell), one window (-smoke): the best.
	if got := quiet([]float64{3, 1, 2, 5, 4}, false, quietEnd); got != 1 {
		t.Errorf("quiet of five = %v, want 1", got)
	}
	if got := quiet([]float64{7}, true, quietEnd); got != 7 {
		t.Errorf("quiet of one window = %v, want 7", got)
	}
	if got := quiet(nil, true, quietEnd); got != 0 {
		t.Errorf("quiet(nil) = %v, want 0", got)
	}
}

func TestWindowFigures(t *testing.T) {
	w := window{pkts: 512, busy: time.Millisecond, batchUs: []float64{600, 400}}
	if got := w.pps(); math.Abs(got-512000) > 1e-6 {
		t.Errorf("pps = %v, want 512000", got)
	}
	if got := w.quantileUs(0.5); got != 400 {
		t.Errorf("p50 = %v, want 400", got)
	}
	ws := []window{
		{pkts: 100, busy: time.Second, batchUs: []float64{9}},
		{pkts: 300, busy: time.Second, batchUs: []float64{3}},
		{pkts: 200, busy: time.Second, batchUs: []float64{5}},
	}
	if got := quiet(perWindow(ws, (*window).pps), true, quietEnd); got != 300 {
		t.Errorf("quiet window pps = %v, want 300", got)
	}
	p99 := perWindow(ws, func(w *window) float64 { return w.quantileUs(0.99) })
	if got := median(p99); got != 5 {
		t.Errorf("median window p99 = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	// compiled 480 under engine 510 under server 1000: a plain chain.
	self := selfTimes([]float64{480, 510, 1000}, []float64{1, 1, 1}, []bool{false, false, false})
	if !near(self[0], 480) || !near(self[1], 30) || !near(self[2], 490) {
		t.Errorf("chain self times = %v, want [480 30 490]", self)
	}

	// A flow cache in the engine hands 5 % of packets down: compiled's 700
	// counts for 35, and the engine keeps the rest of its 220.
	self = selfTimes([]float64{700, 220}, []float64{1, 0.05}, []bool{false, false})
	if !near(self[0], 35) || !near(self[1], 185) {
		t.Errorf("cached self times = %v, want [35 185]", self)
	}
	if sum := self[0] + self[1]; !near(sum, 220) {
		t.Errorf("self times sum to %v, want the top span 220", sum)
	}

	// compiled -> engine view -> dataplane (4 % misses), with pcap decode as
	// a stage beside the chain: the stage keeps its span and the sum is the
	// dataplane span plus the stage.
	self = selfTimes([]float64{700, 725, 150, 60}, []float64{1, 1, 0.04, 1}, []bool{false, false, false, true})
	if !near(self[0], 28) || !near(self[1], 1) || !near(self[2], 121) || !near(self[3], 60) {
		t.Errorf("staged self times = %v, want [28 1 121 60]", self)
	}

	// A child slower than its caller (noise, or overlap on the second core)
	// clamps the caller at zero instead of going negative.
	self = selfTimes([]float64{120, 100}, []float64{1, 1}, []bool{false, false})
	if !near(self[0], 120) || self[1] != 0 {
		t.Errorf("clamped self times = %v, want [120 0]", self)
	}
}
