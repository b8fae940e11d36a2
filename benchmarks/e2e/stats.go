package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// must be sorted ascending. Nearest rank never interpolates, so a reported
// p99 is always a latency some batch really had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-quantile: the count that says whether a percentile is
// supported by the sample (the guide asks for at least ten).
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// geomean is the geometric mean of xs; a workload with one cell reports the
// cell itself. A non-positive value makes the mean 0, so a dead cell cannot
// hide behind healthy ones.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// window is one measurement window of the closed loop: the packets
// classified, the time spent inside the timed calls, and every call's
// duration.
type window struct {
	pkts    int
	busy    time.Duration
	batchUs []float64
}

func (w *window) pps() float64 {
	if w.busy <= 0 {
		return 0
	}
	return float64(w.pkts) / w.busy.Seconds()
}

// quantileUs sorts the window's batch durations in place on first use.
func (w *window) quantileUs(p float64) float64 {
	if !sort.Float64sAreSorted(w.batchUs) {
		sort.Float64s(w.batchUs)
	}
	return percentile(w.batchUs, p)
}

// quietEnd is how far in from the best window the reported one lies unless
// a workload says otherwise: a twentieth of the windows, the sixth best of
// a hundred, the best of five.
const quietEnd = 0.05

// quiet returns the value the share `at` of the way in from the best end of
// vals. The sandbox's neighbours slow memory-bound work by 20-40 %, in
// bursts of seconds and in spells of minutes (an L2-resident pointer chase
// took 160-258 ms for the same work while an ALU loop stayed within 3 %;
// tree_cold's median 0.1 s window sat at 1.4M pps for five minutes and at
// 1.9M an hour earlier). Interference only ever slows a window, so the quiet
// end of many short windows moves least with the neighbours: about half as
// much between those two spells as the median over windows. It is not the
// very best window, because on the paths with two goroutines (sockets, the
// worker pool) that one is a lucky streak of wake-ups: wire_v2's best window
// ran from 2.1M to 3.5M pps between runs while its sixth best stayed within
// 8 %.
func quiet(vals []float64, higherIsBetter bool, at float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := min(int(float64(len(s))*at), len(s)-1)
	if higherIsBetter {
		return s[len(s)-1-i]
	}
	return s[i]
}

// perWindow applies f to every window.
func perWindow(ws []window, f func(*window) float64) []float64 {
	vals := make([]float64, len(ws))
	for i := range ws {
		vals[i] = f(&ws[i])
	}
	return vals
}

// selfTimes turns per-layer span times (ns/packet, listed bottom-up, each
// layer the caller of the one before it) into self times.
//
// share[i] is the fraction of layer i's packets that it hands to the layer
// below (its cache miss ratio; 1 when nothing sits between them), so a
// layer's effective time is its span scaled by the shares of every layer
// above it, and its self time is that minus the effective time of the layer
// below. stage[i] marks a sequential stage that runs beside the chain (pcap
// decode before the dataplane call): it calls nothing, so its self time is
// its span. Without negative clamping the self times sum to the top layer's
// span plus the stages, which is what the residual checks against the
// untraced run.
func selfTimes(spanNs, share []float64, stage []bool) []float64 {
	self := make([]float64, len(spanNs))
	scale := 1.0
	upper := -1 // nearest chain layer above the one being visited
	for i := len(spanNs) - 1; i >= 0; i-- {
		if stage[i] {
			self[i] = spanNs[i]
			continue
		}
		eff := spanNs[i] * scale
		if upper >= 0 {
			self[upper] = math.Max(0, self[upper]-eff)
		}
		self[i] = eff
		scale *= share[i]
		upper = i
	}
	return self
}
