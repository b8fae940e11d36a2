package bench

import (
	"fmt"
	"math"
	"slices"
)

// This file holds the statistics Figures 8–11 report: medians and the
// relative improvement summaries the paper quotes (e.g. "18% median
// improvement over the best baseline").

// median returns the median of xs (the mean of the two middle elements for
// even lengths). It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return sorted[mid-1]*0.5 + sorted[mid]*0.5
}

// improvement returns the paper's improvement metric 1 - a/b: how much
// better (smaller) a is than the reference b. Positive values mean a wins.
// It returns 0 when b is zero.
func improvement(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 1 - a/b
}

// ImprovementSummary aggregates per-classifier improvements of one algorithm
// over a reference (both metrics are "lower is better").
type ImprovementSummary struct {
	// Median, Mean, Best and Worst of the per-classifier improvements
	// (1 - ours/reference).
	Median float64
	Mean   float64
	Best   float64
	Worst  float64
	// WinFraction is the fraction of classifiers where ours strictly beats
	// the reference.
	WinFraction float64
	// Count is the number of classifier pairs summarised.
	Count int
}

// summarize computes an ImprovementSummary from paired metric slices:
// ours[i] and reference[i] are the metric values on classifier i. Pairs
// where the reference is zero are skipped.
func summarize(ours, reference []float64) (ImprovementSummary, error) {
	if len(ours) != len(reference) {
		return ImprovementSummary{}, fmt.Errorf("bench: mismatched lengths %d vs %d", len(ours), len(reference))
	}
	var improvements []float64
	wins := 0
	sum := 0.0
	for i := range ours {
		if reference[i] == 0 {
			continue
		}
		imp := improvement(ours[i], reference[i])
		improvements = append(improvements, imp)
		sum += imp
		if ours[i] < reference[i] {
			wins++
		}
	}
	if len(improvements) == 0 {
		return ImprovementSummary{}, fmt.Errorf("bench: no comparable pairs")
	}
	return ImprovementSummary{
		Median:      median(improvements),
		Mean:        sum / float64(len(improvements)),
		Best:        slices.Max(improvements),
		Worst:       slices.Min(improvements),
		WinFraction: float64(wins) / float64(len(improvements)),
		Count:       len(improvements),
	}, nil
}

// String renders the summary in the style the paper uses in Section 6.
func (s ImprovementSummary) String() string {
	return fmt.Sprintf("median %.0f%%, mean %.0f%%, best %.0f%%, worst %.0f%%, wins %.0f%% of %d",
		s.Median*100, s.Mean*100, s.Best*100, s.Worst*100, s.WinFraction*100, s.Count)
}

// sortedImprovements returns the per-pair improvements (1 - ours/ref)
// sorted ascending — the series plotted in Figure 10.
func sortedImprovements(ours, reference []float64) []float64 {
	n := min(len(ours), len(reference))
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if reference[i] != 0 {
			out = append(out, improvement(ours[i], reference[i]))
		}
	}
	slices.Sort(out)
	return out
}
