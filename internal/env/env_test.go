package env

import (
	"math"
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

func testSet(t *testing.T, fam string, size int, seed int64) *rule.Set {
	t.Helper()
	f, err := classbench.FamilyByName(fam)
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(f, size, seed)
}

func TestObsSizeConstant(t *testing.T) {
	if ObsSize != 208+40+10+NumActions {
		t.Errorf("ObsSize = %d", ObsSize)
	}
	if NumActions != 7 || ActSimplePartition != 5 || ActEffiCutsPartition != 6 {
		t.Errorf("action layout wrong: %d/%d/%d", NumActions, ActSimplePartition, ActEffiCutsPartition)
	}
}

func TestPartitionModeString(t *testing.T) {
	if PartitionNone.String() != "none" || PartitionSimple.String() != "simple" || PartitionEffiCuts.String() != "efficuts" {
		t.Error("mode strings wrong")
	}
	if PartitionMode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestObservationEncoding(t *testing.T) {
	set := testSet(t, "acl1", 100, 1)
	e := New(set, DefaultConfig())
	root := e.Current()
	obs := e.Observation(root)
	if len(obs) != ObsSize {
		t.Fatalf("obs size %d, want %d", len(obs), ObsSize)
	}
	for i, v := range obs {
		if v != 0 && v != 1 {
			t.Fatalf("obs[%d] = %v, want binary", i, v)
		}
	}
	// The root box is the full space: every lower bound is all zeros and
	// every upper bound all ones, so exactly half of the 208 range bits are
	// set.
	sum := 0.0
	for _, v := range obs[:208] {
		sum += v
	}
	if sum != 104 {
		t.Errorf("root range bits sum = %v, want 104", sum)
	}
	// Each coverage band block is a one-hot.
	pos := 208
	for d := 0; d < rule.NumDims; d++ {
		blockSum := 0.0
		for i := 0; i < 8; i++ {
			blockSum += obs[pos+i]
		}
		if blockSum != 1 {
			t.Errorf("coverage block %d sum = %v", d, blockSum)
		}
		pos += 8
	}
	// Partition ID block is a one-hot with slot 0 set at the root.
	if obs[pos] != 1 {
		t.Error("root should have partition ID slot 0")
	}
	// Mask block: cut actions legal, partitions illegal under PartitionNone.
	maskStart := ObsSize - NumActions
	for i := 0; i < NumCutActions; i++ {
		if obs[maskStart+i] != 1 {
			t.Errorf("cut action %d should be legal", i)
		}
	}
	if obs[maskStart+ActSimplePartition] != 0 || obs[maskStart+ActEffiCutsPartition] != 0 {
		t.Error("partition actions should be masked under PartitionNone")
	}
}

func TestActionMaskModes(t *testing.T) {
	set := testSet(t, "fw1", 100, 1)
	for _, mode := range []PartitionMode{PartitionNone, PartitionSimple, PartitionEffiCuts} {
		cfg := DefaultConfig()
		cfg.Partition = mode
		e := New(set, cfg)
		mask := e.ActionMask(e.Current())
		if len(mask) != NumActions {
			t.Fatalf("mask size %d", len(mask))
		}
		wantSimple := mode == PartitionSimple
		wantEffi := mode == PartitionEffiCuts
		if mask[ActSimplePartition] != wantSimple || mask[ActEffiCutsPartition] != wantEffi {
			t.Errorf("mode %s mask = %v", mode, mask)
		}
		// Below the root, partitions are never allowed.
		if err := e.Step(rule.DimSrcIP, 1, Experience{}); err != nil {
			t.Fatal(err)
		}
		if cur := e.Current(); cur != nil {
			childMask := e.ActionMask(cur)
			if childMask[ActSimplePartition] || childMask[ActEffiCutsPartition] {
				t.Errorf("mode %s: partition allowed below the root", mode)
			}
		}
	}
}

func TestStepErrors(t *testing.T) {
	set := testSet(t, "acl2", 80, 2)
	e := New(set, DefaultConfig())
	if err := e.Step(rule.DimSrcIP, NumActions, Experience{}); err == nil {
		t.Error("out-of-range action should fail")
	}
	if err := e.Step(rule.DimSrcIP, -1, Experience{}); err == nil {
		t.Error("negative action should fail")
	}
	if err := e.Step(rule.DimSrcIP, ActSimplePartition, Experience{}); err == nil {
		t.Error("masked partition action should fail under PartitionNone")
	}
}

// randomRollout drives the environment with uniformly random legal actions.
func randomRollout(e *Env, rng *rand.Rand) {
	for !e.Done() {
		n := e.Current()
		mask := e.ActionMask(n)
		var legal []int
		for i, ok := range mask {
			if ok {
				legal = append(legal, i)
			}
		}
		act := legal[rng.Intn(len(legal))]
		dim := rule.Dimension(rng.Intn(rule.NumDims))
		if err := e.Step(dim, act, Experience{LogProb: -1, Value: 0}); err != nil {
			panic(err)
		}
	}
}

func TestRandomRolloutProducesValidTree(t *testing.T) {
	set := testSet(t, "acl1", 200, 3)
	cfg := DefaultConfig()
	cfg.MaxStepsPerRollout = 2000
	e := New(set, cfg)
	rng := rand.New(rand.NewSource(1))
	randomRollout(e, rng)

	exps, tr, err := e.FinishRollout()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) == 0 || len(exps) != e.Steps() {
		t.Fatalf("experiences %d, steps %d", len(exps), e.Steps())
	}
	// Every experience must carry a finite negative return and the policy
	// pass-through fields.
	for i, x := range exps {
		if x.Return >= 0 || math.IsInf(x.Return, 0) || math.IsNaN(x.Return) {
			t.Fatalf("experience %d return %v", i, x.Return)
		}
		if len(x.Obs) != ObsSize || len(x.Mask) != NumActions {
			t.Fatalf("experience %d shapes", i)
		}
		if x.LogProb != -1 {
			t.Fatalf("experience %d lost the policy log-prob", i)
		}
	}
	// The built tree, compiled, classifies identically to linear search.
	c, err := compiled.Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := rule.Packet{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: uint8(rng.Intn(256)),
		}
		if got, want := c.LookupIndex(p), set.MatchIndex(p); got != want {
			t.Fatalf("packet %v: compiled rule %d, linear rule %d", p, got, want)
		}
	}
	// The root experience's return must equal the negated whole-tree
	// objective under c=1 linear scaling (i.e. minus the classification
	// time).
	m := tr.ComputeMetrics()
	if exps[0].Return != -float64(m.ClassificationTime) {
		t.Errorf("root return %v, want %v", exps[0].Return, -float64(m.ClassificationTime))
	}
	if got := e.TreeObjective(tr); got != float64(m.ClassificationTime) {
		t.Errorf("TreeObjective = %v, want %v", got, float64(m.ClassificationTime))
	}
}

// TestObserveFeedsStep pins the once-per-step encoding: Observe returns what
// Observation and ActionMask compute for the current node, the Step that
// follows records that very observation, and the coverage bands — counted
// from a per-rule largeness mask — are the ones a direct count of
// Rule.Coverage over the node's rules gives.
func TestObserveFeedsStep(t *testing.T) {
	set := testSet(t, "fw1", 300, 4)
	e := New(set, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	for step := 0; !e.Done() && step < 200; step++ {
		n := e.Current()
		obs, mask := e.Observe()
		if mask != e.ActionMask(n) {
			t.Fatalf("step %d: Observe mask %v, ActionMask %v", step, mask, e.ActionMask(n))
		}
		direct := e.Observation(n)
		for i := range obs {
			if obs[i] != direct[i] {
				t.Fatalf("step %d: Observe[%d] = %v, Observation = %v", step, i, obs[i], direct[i])
			}
		}
		for d := 0; d < rule.NumDims; d++ {
			large := 0
			for _, ri := range n.Rules {
				if set.Rule(int(ri)).Coverage(rule.Dimension(d)) > 0.5 {
					large++
				}
			}
			level := min(int(float64(large)/float64(len(n.Rules))*8), 7)
			if obs[208+8*d+level] != 1 {
				t.Fatalf("step %d: dimension %d coverage band is not %d (%d of %d rules large)",
					step, d, level, large, len(n.Rules))
			}
		}
		if err := e.Step(rule.Dimension(rng.Intn(rule.NumDims)), rng.Intn(NumCutActions), Experience{}); err != nil {
			t.Fatal(err)
		}
		if got := e.experiences[len(e.experiences)-1].Obs; &got[0] != &obs[0] {
			t.Fatalf("step %d: Step encoded the node again", step)
		}
	}
}

func TestFinishRolloutBeforeDoneFails(t *testing.T) {
	set := testSet(t, "acl1", 200, 3)
	e := New(set, DefaultConfig())
	if _, _, err := e.FinishRollout(); err == nil {
		t.Error("unfinished rollout should not finish")
	}
}

func TestStepOnFinishedRolloutFails(t *testing.T) {
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	e := New(set, DefaultConfig())
	if !e.Done() {
		t.Fatal("tiny classifier should be done immediately")
	}
	if err := e.Step(rule.DimSrcIP, 0, Experience{}); err == nil {
		t.Error("step on finished rollout should fail")
	}
	if _, _, err := e.FinishRollout(); err != nil {
		t.Errorf("finishing an immediately-done rollout should work: %v", err)
	}
}

func TestRolloutTruncationBySteps(t *testing.T) {
	set := testSet(t, "fw2", 400, 4)
	cfg := DefaultConfig()
	cfg.MaxStepsPerRollout = 10
	e := New(set, cfg)
	rng := rand.New(rand.NewSource(2))
	randomRollout(e, rng)
	if !e.Truncated() {
		t.Error("rollout should have been truncated")
	}
	if e.Steps() > 10 {
		t.Errorf("steps %d exceed the limit", e.Steps())
	}
	if _, _, err := e.FinishRollout(); err != nil {
		t.Fatal(err)
	}
}

func TestRolloutTruncationByDepth(t *testing.T) {
	set := testSet(t, "fw5", 300, 5)
	cfg := DefaultConfig()
	cfg.MaxDepth = 3
	cfg.MaxStepsPerRollout = 100000
	e := New(set, cfg)
	rng := rand.New(rand.NewSource(3))
	randomRollout(e, rng)
	_, tr, err := e.FinishRollout()
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxDepth() > 3 {
		t.Errorf("tree depth %d exceeds the truncation depth", tr.MaxDepth())
	}
}

func TestSimplePartitionAction(t *testing.T) {
	set := testSet(t, "fw1", 200, 6)
	cfg := DefaultConfig()
	cfg.Partition = PartitionSimple
	e := New(set, cfg)
	// The source-IP dimension of a firewall set has both large and small
	// rules, so the simple partition succeeds at the root.
	if err := e.Step(rule.DimSrcIP, ActSimplePartition, Experience{}); err != nil {
		t.Fatal(err)
	}
	if e.Tree().Root.Kind != tree.KindPartition {
		t.Errorf("root kind = %s, want partition", e.Tree().Root.Kind)
	}
	// Both sides of a simple partition sit in identity slot 1.
	for i, c := range e.Tree().Root.Children {
		if id := e.Observation(c)[208+40 : 208+40+10]; id[1] != 1 {
			t.Errorf("simple-partition child %d identity block = %v, want slot 1", i, id)
		}
	}
}

func TestEffiCutsPartitionAction(t *testing.T) {
	set := testSet(t, "fw3", 200, 7)
	cfg := DefaultConfig()
	cfg.Partition = PartitionEffiCuts
	cfg.TimeSpaceCoeff = 0
	cfg.Scale = ScaleLog
	e := New(set, cfg)
	if err := e.Step(rule.DimSrcIP, ActEffiCutsPartition, Experience{}); err != nil {
		t.Fatal(err)
	}
	root := e.Tree().Root
	if root.Kind != tree.KindPartition {
		t.Fatalf("root kind = %s", root.Kind)
	}
	// Children carry EffiCuts partition identities that show up in their
	// observations.
	for _, c := range root.Children {
		if c.PartitionLabel == "" {
			t.Error("partition child lost its label")
		}
		obs := e.Observation(c)
		idBlock := obs[208+40 : 208+40+10]
		if idBlock[0] != 0 {
			t.Error("partition child should not be in slot 0")
		}
	}
	// Category i (label "effi-<i>") sits in slot i+1, the last slot taking
	// the overflow.
	for i, c := range root.Children {
		if id := e.Observation(c)[208+40 : 208+40+10]; id[min(i+1, 9)] != 1 {
			t.Errorf("category %d (%s) identity block = %v", i, c.PartitionLabel, id)
		}
	}
	// Finish with random cuts and verify log-scaled space returns.
	rng := rand.New(rand.NewSource(9))
	randomRollout(e, rng)
	exps, tr, err := e.FinishRollout()
	if err != nil {
		t.Fatal(err)
	}
	m := tr.ComputeMetrics()
	wantRoot := -math.Log(float64(m.MemoryBytes))
	if math.Abs(exps[0].Return-wantRoot) > 1e-9 {
		t.Errorf("root return %v, want %v", exps[0].Return, wantRoot)
	}
}

func TestRepairDimension(t *testing.T) {
	set := testSet(t, "acl3", 100, 8)
	e := New(set, DefaultConfig())
	n := e.Current()
	// A narrow protocol box cannot be cut; the environment repairs the
	// choice to a cuttable dimension.
	n.Box[rule.DimProto] = rule.Range{Lo: 6, Hi: 6}
	if err := e.Step(rule.DimProto, 0, Experience{}); err != nil {
		t.Fatal(err)
	}
	if e.Tree().Root.CutDims[0] == rule.DimProto {
		t.Error("uncuttable dimension was not repaired")
	}
}

func TestConfigClamping(t *testing.T) {
	set := testSet(t, "acl1", 50, 9)
	e := New(set, Config{TimeSpaceCoeff: 7})
	if e.Config().TimeSpaceCoeff != 1 {
		t.Error("coefficient should clamp to 1")
	}
	e = New(set, Config{TimeSpaceCoeff: -3})
	if e.Config().TimeSpaceCoeff != 0 {
		t.Error("coefficient should clamp to 0")
	}
	if e.Config().Binth != tree.DefaultBinth || e.Config().MaxDepth <= 0 || e.Config().MaxStepsPerRollout <= 0 {
		t.Error("defaults not applied")
	}
}

func TestResetClearsState(t *testing.T) {
	set := testSet(t, "ipc1", 150, 10)
	e := New(set, DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	randomRollout(e, rng)
	if e.Steps() == 0 {
		t.Fatal("rollout did nothing")
	}
	e.Reset()
	if e.Steps() != 0 || e.Done() || e.Truncated() {
		t.Error("reset did not clear state")
	}
	if e.Current() != e.Tree().Root {
		t.Error("reset should start at a fresh root")
	}
}
