package engine

import (
	"errors"
	"fmt"

	"neurocuts/internal/compiled"
	"neurocuts/internal/core"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/env"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/hypercuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// build is the one build step every backend shares: it grows the backend's
// trees, computes the paper's tree metrics once — linear search keeps its
// own cost model — and compiles the trees into the flat serving form, the
// one form every snapshot serves, SaveArtifact persists and warm starts
// reload, adding its real size to the metrics. The pointer-linked trees are
// discarded after.
func (b backendEntry) build(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
	trees, err := b.trees(set, opts)
	if err != nil {
		return nil, Metrics{}, err
	}
	m := linearMetrics(set.Len())
	if b.name != "linear" {
		m = treeMetrics(b.name, set.Len(), tree.MultiMetrics(trees))
	}
	c, err := compiled.Compile(set, trees...)
	if err != nil {
		return nil, Metrics{}, fmt.Errorf("engine: compiling %s: %w", b.name, err)
	}
	m.CompiledBytes = c.Stats().MemoryBytes
	return c, m, nil
}

// linearMetrics is linear search's cost model: every rule scanned, each
// stored once as five 16-byte ranges plus priority and ID — not the
// one-leaf form's single node visit.
func linearMetrics(n int) Metrics {
	const ruleBytes = rule.NumDims*16 + 16
	return Metrics{Backend: "linear", Rules: n, LookupCost: n, MemoryBytes: n * ruleBytes, BytesPerRule: ruleBytes, Entries: n}
}

// compiledMetrics derives engine metrics from a compiled classifier alone
// (used when an artifact is loaded and no build-time tree metrics exist).
func compiledMetrics(backend string, c *compiled.Classifier) Metrics {
	st := c.Stats()
	m := Metrics{
		Backend:       backend,
		Rules:         st.Rules,
		LookupCost:    st.WorstCaseVisits,
		MemoryBytes:   st.MemoryBytes,
		CompiledBytes: st.MemoryBytes,
		Entries:       st.LeafRuleRefs,
	}
	if m.Rules > 0 {
		m.BytesPerRule = float64(m.MemoryBytes) / float64(m.Rules)
	}
	return m
}

// treeMetrics converts the shared decision-tree metrics into engine metrics.
func treeMetrics(backend string, rules int, m tree.Metrics) Metrics {
	return Metrics{
		Backend:      backend,
		Rules:        rules,
		LookupCost:   m.ClassificationTime,
		MemoryBytes:  m.MemoryBytes,
		BytesPerRule: m.BytesPerRule,
		Entries:      m.RuleRefs,
	}
}

func init() {
	// Linear search is the tree with no cuts: one leaf holding every rule,
	// compiled like any other.
	register("linear", "Linear", func(set *rule.Set, opts Options) ([]*tree.Tree, error) {
		return []*tree.Tree{tree.New(set, opts.Binth)}, nil
	})

	register("hicuts", "HiCuts", func(set *rule.Set, opts Options) ([]*tree.Tree, error) {
		cfg := hicuts.DefaultConfig()
		cfg.Binth = opts.Binth
		t, err := hicuts.Build(set, cfg)
		return []*tree.Tree{t}, err
	})

	register("hypercuts", "HyperCuts", func(set *rule.Set, opts Options) ([]*tree.Tree, error) {
		cfg := hypercuts.DefaultConfig()
		cfg.Binth = opts.Binth
		t, err := hypercuts.Build(set, cfg)
		return []*tree.Tree{t}, err
	})

	register("efficuts", "EffiCuts", func(set *rule.Set, opts Options) ([]*tree.Tree, error) {
		cfg := efficuts.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := efficuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return c.Trees, nil
	})

	register("cutsplit", "CutSplit", func(set *rule.Set, opts Options) ([]*tree.Tree, error) {
		cfg := cutsplit.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := cutsplit.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return c.Trees, nil
	})

	register("neurocuts", "NeuroCuts", func(set *rule.Set, opts Options) ([]*tree.Tree, error) {
		cfg := core.Scaled(1000)
		cfg.Binth = opts.Binth
		if opts.TimeSpaceCoeffSet {
			cfg.TimeSpaceCoeff = opts.TimeSpaceCoeff
		}
		if opts.LogReward {
			cfg.Scale = env.ScaleLog
		}
		cfg.MaxTimesteps = opts.Timesteps
		cfg.BatchTimesteps = max(256, opts.Timesteps/10)
		cfg.Workers = opts.Workers
		cfg.Seed = opts.Seed
		cfg.Partition = env.PartitionNone
		if opts.SimplePartition {
			cfg.Partition = env.PartitionSimple
		}
		trainer := core.NewTrainer(set, cfg)
		if _, err := trainer.Train(); err != nil {
			return nil, err
		}
		t, _ := trainer.BestTree()
		if t == nil {
			return nil, errors.New("engine: neurocuts training produced no tree")
		}
		return []*tree.Tree{t}, nil
	})
}
