package core

import (
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/rule"
)

// TestTrainerWithTrafficTrace trains NeuroCuts under the traffic-aware
// objective (average classification time over a trace) and verifies that the
// best tree is still an exact classifier and that its average lookup time
// over the trace is no worse than its worst-case time.
func TestTrainerWithTrafficTrace(t *testing.T) {
	set := testSet(t, "acl2", 120, 5)
	traceEntries := classbench.GenerateTrace(set, 400, 6)
	packets := make([]rule.Packet, len(traceEntries))
	for i, e := range traceEntries {
		packets[i] = e.Key
	}

	cfg := tinyConfig()
	cfg.TrafficTrace = packets
	tr := NewTrainer(set, cfg)
	if _, err := tr.Train(); err != nil {
		t.Fatal(err)
	}
	best, objective := tr.BestTree()
	if best == nil {
		t.Fatal("no best tree")
	}
	avg := best.AverageLookupTime(packets)
	worst := float64(best.ComputeMetrics().ClassificationTime)
	if avg <= 0 || avg > worst {
		t.Errorf("average %v out of range (worst %v)", avg, worst)
	}
	// The tracked objective is the average lookup time of the best tree.
	if objective <= 0 || objective > worst {
		t.Errorf("objective %v out of range", objective)
	}
	// Correctness still holds in the compiled form.
	c, err := compiled.Compile(set, best)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range traceEntries {
		if got, want := c.LookupIndex(e.Key), set.MatchIndex(e.Key); got != want || got != e.MatchRule {
			t.Fatalf("traffic-trained tree misclassified %v: compiled rule %d, linear rule %d", e.Key, got, want)
		}
	}
}
