package bench

import (
	"bytes"
	"strings"
	"testing"

	"neurocuts/internal/engine"
)

// microOptions keeps harness tests fast: tiny classifiers and tiny training
// budgets. The point of these tests is that the harness produces complete,
// well-formed results, not that the trained policies are good.
func microOptions() Options {
	return Options{
		Size:           120,
		Seed:           1,
		TrainTimesteps: 400,
		BatchTimesteps: 200,
		Workers:        2,
		Binth:          16,
	}
}

// microScenarios picks three families (one per category) at micro size.
func microScenarios() []Scenario {
	return []Scenario{
		{Family: "acl1", Size: 120, Seed: 1},
		{Family: "fw1", Size: 120, Seed: 1},
		{Family: "ipc1", Size: 120, Seed: 1},
	}
}

func TestScenarioNameAndGenerate(t *testing.T) {
	s := Scenario{Family: "acl1", Size: 1000, Seed: 1}
	if s.Name() != "acl1_1k" {
		t.Errorf("Name = %q", s.Name())
	}
	s = Scenario{Family: "fw3", Size: 500, Seed: 1}
	if s.Name() != "fw3_500" {
		t.Errorf("Name = %q", s.Name())
	}
	set, err := s.Generate()
	if err != nil || set.Len() == 0 {
		t.Fatalf("Generate: %v", err)
	}
	if _, err := (Scenario{Family: "nope", Size: 10}).Generate(); err == nil {
		t.Error("unknown family should fail")
	}
}

func TestDefaultScenariosCoverAllFamilies(t *testing.T) {
	s := DefaultScenarios(1000)
	if len(s) != 12 {
		t.Fatalf("got %d scenarios", len(s))
	}
	names := map[string]bool{}
	for _, sc := range s {
		names[sc.Family] = true
	}
	for _, want := range []string{"acl1", "acl5", "fw1", "fw5", "ipc1", "ipc2"} {
		if !names[want] {
			t.Errorf("missing family %s", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Size <= 0 || o.TrainTimesteps <= 0 || o.Workers <= 0 || o.Binth <= 0 {
		t.Errorf("defaults missing: %+v", o)
	}
}

func TestRunBaselines(t *testing.T) {
	set, err := (Scenario{Family: "acl1", Size: 200, Seed: 1}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	results, err := runBaselines(set, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d baseline results", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Algorithm] = true
		if r.Time <= 0 || r.BytesPerRule <= 0 || r.MemoryBytes <= 0 {
			t.Errorf("%s: degenerate result %+v", r.Algorithm, r)
		}
	}
	for _, name := range baselineBackends {
		if want := engine.DisplayName(name); !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestFigure8(t *testing.T) {
	res, err := Figure8(microScenarios(), microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Results) != 5 {
			t.Fatalf("%s: %d algorithms", row.Scenario.Name(), len(row.Results))
		}
		if _, ok := row.Get(NameNeuroCuts); !ok {
			t.Fatalf("%s: NeuroCuts missing", row.Scenario.Name())
		}
		if _, ok := row.Get("nonexistent"); ok {
			t.Fatal("Get should miss unknown algorithms")
		}
	}
	if res.Summary.Count != 3 {
		t.Errorf("summary count %d", res.Summary.Count)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "acl1_120") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestFigure9(t *testing.T) {
	res, err := Figure9(microScenarios()[:2], microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.MedianBytesRule <= 0 {
		t.Error("median bytes/rule should be positive")
	}
	if res.VsEffiCuts.Count != 2 || res.VsCutSplit.Count != 2 {
		t.Error("summaries incomplete")
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("missing header")
	}
}

func TestFigure10(t *testing.T) {
	res, err := Figure10(microScenarios()[:2], microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 2 || len(res.SpaceImprovements) != 2 || len(res.TimeImprovements) != 2 {
		t.Fatalf("incomplete result %+v", res)
	}
	// Sorted ascending.
	for i := 1; i < len(res.SpaceImprovements); i++ {
		if res.SpaceImprovements[i] < res.SpaceImprovements[i-1] {
			t.Error("space improvements not sorted")
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 10(a)") || !strings.Contains(buf.String(), "Figure 10(b)") {
		t.Error("missing panels")
	}
}

func TestFigure11(t *testing.T) {
	res, err := Figure11(microScenarios()[:1], microOptions(), []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MedianTime <= 0 || p.MedianBytesPerRule <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Error("missing header")
	}
	// Default c values.
	res2, err := Figure11(microScenarios()[:1], microOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Points) != 4 {
		t.Errorf("default sweep has %d points", len(res2.Points))
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(Scenario{Family: "fw5", Size: 120, Seed: 1}, microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 4 {
		t.Fatalf("snapshots = %d", len(res.Snapshots))
	}
	labels := []string{"random policy", "mid training", "converged", "HiCuts"}
	for i, s := range res.Snapshots {
		if s.Label != labels[i] {
			t.Errorf("snapshot %d label %q", i, s.Label)
		}
		if len(s.LevelSizes) == 0 || s.LevelSizes[0] != 1 {
			t.Errorf("snapshot %q level sizes %v", s.Label, s.LevelSizes)
		}
		if s.Time <= 0 || s.MemoryBytes <= 0 {
			t.Errorf("snapshot %q degenerate metrics", s.Label)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "fw5_120") {
		t.Error("missing scenario name")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(Scenario{Family: "acl4", Size: 120, Seed: 1}, microOptions(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variations) != 3 {
		t.Fatalf("variations = %d", len(res.Variations))
	}
	for _, v := range res.Variations {
		if v.Time <= 0 || v.Nodes <= 0 {
			t.Errorf("degenerate variation %+v", v)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("missing header")
	}
	// Default variation count.
	res2, err := Figure6(Scenario{Family: "acl4", Size: 100, Seed: 2}, microOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Variations) != 4 {
		t.Errorf("default variations = %d", len(res2.Variations))
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "10000000", "60000", "512", "tanh", "5e-05", "0.01", "0.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}
