package env

import (
	"math"
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// TestTrafficAwareObjective exercises the average-time extension: with a
// traffic trace configured, the root experience's return equals the negated
// average lookup time over that trace (c=1, linear scaling), which is at
// most the worst-case classification time.
func TestTrafficAwareObjective(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl3")
	set := classbench.Generate(fam, 200, 3)
	traceEntries := classbench.GenerateTrace(set, 500, 4)
	packets := make([]rule.Packet, len(traceEntries))
	for i, e := range traceEntries {
		packets[i] = e.Key
	}

	cfg := Config{TimeSpaceCoeff: 1}
	cfg.TrafficTrace = packets
	e := New(set, cfg)
	rng := rand.New(rand.NewSource(5))
	randomRollout(e, rng)
	exps, tr, err := e.FinishRollout()
	if err != nil {
		t.Fatal(err)
	}

	avg := tr.AverageLookupTime(packets)
	worst := float64(tr.ComputeMetrics().ClassificationTime)
	if math.Abs(exps[0].Return+avg) > 1e-9 {
		t.Errorf("root return %v, want %v (negated average time)", exps[0].Return, -avg)
	}
	if avg > worst {
		t.Errorf("average %v exceeds worst case %v", avg, worst)
	}
	if got := e.TreeObjective(tr); math.Abs(got-avg) > 1e-9 {
		t.Errorf("TreeObjective = %v, want average %v", got, avg)
	}

	// Without the trace, the same tree scores its worst-case time, which can
	// only be larger or equal.
	plain := New(set, Config{TimeSpaceCoeff: 1})
	if got := plain.TreeObjective(tr); got < avg-1e-9 {
		t.Errorf("worst-case objective %v below average %v", got, avg)
	}
}

// TestTrafficAwareUnreachedNodesFallBack ensures nodes that no trace packet
// reaches still get a finite (worst-case) reward.
func TestTrafficAwareUnreachedNodesFallBack(t *testing.T) {
	fam, _ := classbench.FamilyByName("fw2")
	set := classbench.Generate(fam, 150, 6)
	// A single-packet trace reaches only one path; everything else falls
	// back to worst-case time.
	cfg := Config{TimeSpaceCoeff: 1}
	cfg.TrafficTrace = []rule.Packet{{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}}
	e := New(set, cfg)
	rng := rand.New(rand.NewSource(7))
	randomRollout(e, rng)
	exps, _, err := e.FinishRollout()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range exps {
		if math.IsNaN(x.Return) || math.IsInf(x.Return, 0) || x.Return >= 0 {
			t.Fatalf("experience %d return %v", i, x.Return)
		}
	}
}
