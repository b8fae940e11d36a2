package tree

import (
	"math"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

func TestTrafficStatsOnFigure2Tree(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	children, _ := tr.Cut(tr.Root, rule.DimSrcPort, 4)
	for _, c := range children {
		if _, err := tr.Cut(c, rule.DimDstPort, 2); err != nil {
			t.Fatal(err)
		}
	}

	// Two packets, both in the first x quarter, different y halves.
	p1 := rule.Packet{SrcPort: 100, DstPort: 100}
	p2 := rule.Packet{SrcPort: 100, DstPort: 60000}
	stats := tr.ComputeTrafficStats([]rule.Packet{p1, p2})
	if stats.Packets != 2 {
		t.Fatalf("packets = %d", stats.Packets)
	}
	// The root is reached by both packets; its subtree costs 3 visits each.
	avg, ok := stats.AverageTime(tr.Root)
	if !ok || avg != 3 {
		t.Errorf("root average time = %v, %v", avg, ok)
	}
	// The first x child is reached by both; the other x children by none.
	if avg, ok := stats.AverageTime(children[0]); !ok || avg != 2 {
		t.Errorf("child 0 average time = %v, %v", avg, ok)
	}
	if _, ok := stats.AverageTime(children[2]); ok {
		t.Error("child 2 should not be reached")
	}
	// AverageLookupTime agrees with the per-root statistic.
	if got := tr.AverageLookupTime([]rule.Packet{p1, p2}); got != 3 {
		t.Errorf("average lookup time = %v", got)
	}
	if got := tr.AverageLookupTime(nil); got != 0 {
		t.Errorf("empty trace average = %v", got)
	}
}

func TestTrafficStatsWithPartition(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	var wide, narrow []int32
	for i, r := range set.Rules() {
		if r.Coverage(rule.DimSrcPort) > 0.5 {
			wide = append(wide, int32(i))
		} else {
			narrow = append(narrow, int32(i))
		}
	}
	parts, err := tr.Partition(tr.Root, [][]int32{narrow, wide}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Cut(parts[0], rule.DimSrcPort, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Cut(parts[1], rule.DimDstPort, 2); err != nil {
		t.Fatal(err)
	}
	p := rule.Packet{SrcPort: 100, DstPort: 100}
	stats := tr.ComputeTrafficStats([]rule.Packet{p})
	// Partition lookups visit both children: root(1) + [part0(1)+leaf(1)] +
	// [part1(1)+leaf(1)] = 5.
	if avg, ok := stats.AverageTime(tr.Root); !ok || avg != 5 {
		t.Errorf("root average = %v, %v", avg, ok)
	}
	// Both partition children are reached by the single packet.
	if c := stats.Count[parts[0]]; c != 1 {
		t.Errorf("partition child 0 count = %d", c)
	}
	if c := stats.Count[parts[1]]; c != 1 {
		t.Errorf("partition child 1 count = %d", c)
	}
}

func TestAverageNeverExceedsWorstCase(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(fam, 200, 4)
	b := NewBuilder(set, 8)
	for steps := 0; !b.Done() && steps < 300; {
		if err := b.ApplyCut(rule.Dimensions()[steps%rule.NumDims], 8); err != nil {
			b.Skip()
		} else {
			steps++
		}
	}
	tr := b.Tree()
	trace := classbench.GenerateTrace(set, 2000, 5)
	packets := make([]rule.Packet, len(trace))
	for i, e := range trace {
		packets[i] = e.Key
	}
	avg := tr.AverageLookupTime(packets)
	worst := tr.ComputeMetrics().ClassificationTime
	if avg <= 0 || avg > float64(worst)+1e-9 {
		t.Errorf("average %v must be positive and at most the worst case %d", avg, worst)
	}
	// Per-node averages computed through TrafficStats agree with the direct
	// root measurement.
	stats := tr.ComputeTrafficStats(packets)
	rootAvg, ok := stats.AverageTime(tr.Root)
	if !ok || math.Abs(rootAvg-avg) > 1e-9 {
		t.Errorf("root average %v != direct average %v", rootAvg, avg)
	}
}
