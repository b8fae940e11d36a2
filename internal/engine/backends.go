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

// compileTrees is the shared back half of every backend: it compiles the
// trees into the flat serving form — the one form every snapshot serves,
// SaveArtifact persists and warm starts reload — and adds its real size to
// the backend's metrics m. The pointer-linked trees are discarded after.
func compileTrees(set *rule.Set, m Metrics, trees ...*tree.Tree) (*compiled.Classifier, Metrics, error) {
	c, err := compiled.Compile(set, trees...)
	if err != nil {
		return nil, Metrics{}, fmt.Errorf("engine: compiling %s: %w", m.Backend, err)
	}
	m.CompiledBytes = c.Stats().MemoryBytes
	return c, m, nil
}

// newTreeClassifier computes the paper's tree metrics once, then compiles
// the trees.
func newTreeClassifier(backend string, set *rule.Set, trees []*tree.Tree) (*compiled.Classifier, Metrics, error) {
	return compileTrees(set, treeMetrics(backend, set.Len(), tree.MultiMetrics(trees)), trees...)
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
	// compiled like any other. Its metrics stay linear search's cost model —
	// every rule scanned, each stored once as five 16-byte ranges plus
	// priority and ID — not the one-leaf form's single node visit.
	Register("linear", "Linear", func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
		const ruleBytes = rule.NumDims*16 + 16
		n := set.Len()
		m := Metrics{Backend: "linear", Rules: n, LookupCost: n, MemoryBytes: n * ruleBytes, BytesPerRule: ruleBytes, Entries: n}
		return compileTrees(set, m, tree.New(set, opts.Binth))
	})

	Register("hicuts", "HiCuts", func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
		cfg := hicuts.DefaultConfig()
		cfg.Binth = opts.Binth
		t, err := hicuts.Build(set, cfg)
		if err != nil {
			return nil, Metrics{}, err
		}
		return newTreeClassifier("hicuts", set, []*tree.Tree{t})
	})

	Register("hypercuts", "HyperCuts", func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
		cfg := hypercuts.DefaultConfig()
		cfg.Binth = opts.Binth
		t, err := hypercuts.Build(set, cfg)
		if err != nil {
			return nil, Metrics{}, err
		}
		return newTreeClassifier("hypercuts", set, []*tree.Tree{t})
	})

	Register("efficuts", "EffiCuts", func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
		cfg := efficuts.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := efficuts.Build(set, cfg)
		if err != nil {
			return nil, Metrics{}, err
		}
		return newTreeClassifier("efficuts", set, c.Trees)
	})

	Register("cutsplit", "CutSplit", func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
		cfg := cutsplit.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := cutsplit.Build(set, cfg)
		if err != nil {
			return nil, Metrics{}, err
		}
		return newTreeClassifier("cutsplit", set, c.Trees)
	})

	Register("neurocuts", "NeuroCuts", func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
		cfg := core.Scaled(1000)
		cfg.Binth = opts.Binth
		if opts.TimeSpaceCoeffSet {
			cfg.TimeSpaceCoeff = opts.TimeSpaceCoeff
		}
		if opts.LogReward {
			cfg.Scale = env.ScaleLog
		}
		cfg.MaxTimesteps = opts.Timesteps
		cfg.BatchTimesteps = maxInt(256, opts.Timesteps/10)
		cfg.Workers = opts.Workers
		cfg.Seed = opts.Seed
		cfg.Partition = env.PartitionNone
		if opts.SimplePartition {
			cfg.Partition = env.PartitionSimple
		}
		trainer := core.NewTrainer(set, cfg)
		if _, err := trainer.Train(); err != nil {
			return nil, Metrics{}, err
		}
		t, _ := trainer.BestTree()
		if t == nil {
			return nil, Metrics{}, errors.New("engine: neurocuts training produced no tree")
		}
		return newTreeClassifier("neurocuts", set, []*tree.Tree{t})
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
