package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestApproachAblation(t *testing.T) {
	res, err := ApproachAblation(microScenarios()[:2], microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Results) != 5 {
			t.Fatalf("%s: %d approaches, want 5", row.Scenario.Name(), len(row.Results))
		}
		byName := map[string]ApproachResult{}
		for _, r := range row.Results {
			byName[r.Approach] = r
			if r.LookupCost <= 0 || r.MemoryBytes <= 0 || r.Entries <= 0 {
				t.Errorf("%s/%s: degenerate result %+v", row.Scenario.Name(), r.Approach, r)
			}
		}
		// The structural trade-off the ablation is meant to show: TSS
		// stores at least one entry per rule.
		if byName["TSS"].Entries < row.Scenario.Size/2 {
			t.Errorf("TSS entries %d suspiciously low", byName["TSS"].Entries)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	for _, want := range []string{"TSS", "HiCuts", "CutSplit"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %s", want)
		}
	}
}

func TestTrafficAblation(t *testing.T) {
	res, err := TrafficAblation(microScenarios()[:1], microOptions(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r.WorstTrainedWorst <= 0 || r.TrafficTrainedWorst <= 0 {
		t.Errorf("degenerate worst-case metrics %+v", r)
	}
	if r.WorstTrainedAvg <= 0 || r.TrafficTrainedAvg <= 0 {
		t.Errorf("degenerate average metrics %+v", r)
	}
	// The average can never exceed the worst case for the same tree.
	if r.WorstTrainedAvg > float64(r.WorstTrainedWorst)+1e-9 {
		t.Errorf("average %v exceeds worst %d", r.WorstTrainedAvg, r.WorstTrainedWorst)
	}
	if r.TrafficTrainedAvg > float64(r.TrafficTrainedWorst)+1e-9 {
		t.Errorf("average %v exceeds worst %d", r.TrafficTrainedAvg, r.TrafficTrainedWorst)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "traffic-aware") {
		t.Error("missing header")
	}
	// Default trace length path.
	if _, err := TrafficAblation(nil, microOptions(), 0); err != nil {
		t.Fatal(err)
	}
}
