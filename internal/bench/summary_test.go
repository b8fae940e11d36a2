package bench

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestMedian(t *testing.T) {
	if !almostEqual(median([]float64{3, 1, 2}), 2) {
		t.Error("odd median")
	}
	if !almostEqual(median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("even median")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median should be NaN")
	}
	if !almostEqual(median([]float64{7}), 7) {
		t.Error("single-element median")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// Property: the median lies between the extremes.
func TestPropertyMedianBetweenExtremes(t *testing.T) {
	f := func(raw []float64) bool {
		xs := slices.DeleteFunc(raw, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
		if len(xs) == 0 {
			return true
		}
		m := median(xs)
		return m >= slices.Min(xs)-1e-9 && m <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImprovement(t *testing.T) {
	if !almostEqual(improvement(50, 100), 0.5) {
		t.Error("halving is a 50% improvement")
	}
	if !almostEqual(improvement(100, 100), 0) {
		t.Error("equal is 0%")
	}
	if improvement(150, 100) >= 0 {
		t.Error("regression should be negative")
	}
	if improvement(1, 0) != 0 {
		t.Error("zero reference yields 0")
	}
}

func TestSummarize(t *testing.T) {
	ours := []float64{10, 20, 40, 5}
	ref := []float64{20, 20, 30, 10}
	s, err := summarize(ours, ref)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 4 {
		t.Errorf("count = %d", s.Count)
	}
	if !almostEqual(s.Best, 0.5) {
		t.Errorf("best = %v", s.Best)
	}
	if !almostEqual(s.Worst, 1-40.0/30.0) {
		t.Errorf("worst = %v", s.Worst)
	}
	if !almostEqual(s.Mean, (0.5+0+(1-40.0/30.0)+0.5)/4) {
		t.Errorf("mean = %v", s.Mean)
	}
	if !almostEqual(s.WinFraction, 0.5) {
		t.Errorf("wins = %v", s.WinFraction)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	if _, err := summarize([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := summarize([]float64{1}, []float64{0}); err == nil {
		t.Error("all-zero reference should error")
	}
	// Zero-reference entries are skipped, not fatal, when others exist.
	s2, err := summarize([]float64{1, 5}, []float64{0, 10})
	if err != nil || s2.Count != 1 {
		t.Errorf("skip-zero summarize = %+v, %v", s2, err)
	}
}

func TestSortedImprovements(t *testing.T) {
	got := sortedImprovements([]float64{10, 30, 5}, []float64{20, 20, 20})
	if len(got) != 3 || !sort.Float64sAreSorted(got) {
		t.Fatalf("got %v", got)
	}
	if !almostEqual(got[0], -0.5) || !almostEqual(got[2], 0.75) {
		t.Errorf("got %v", got)
	}
	// Mismatched lengths use the shorter, zero refs skipped.
	got = sortedImprovements([]float64{10, 30}, []float64{0, 20, 40})
	if len(got) != 1 {
		t.Errorf("got %v", got)
	}
}
