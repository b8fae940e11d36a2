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

// linearClassifier is the linear-search reference: a lookup scans the rule
// list in priority order. LookupBatch is a sequential loop.
type linearClassifier struct {
	set *rule.Set
}

// linearRuleBytes models one stored rule for the linear-search backend:
// five 16-byte ranges plus priority and ID.
const linearRuleBytes = rule.NumDims*16 + 16

func (l *linearClassifier) Lookup(p rule.Packet) int32 { return int32(l.set.MatchIndex(p)) }

func (l *linearClassifier) LookupBatch(ps []rule.Packet, pos []int32) {
	for i, p := range ps {
		pos[i] = int32(l.set.MatchIndex(p))
	}
}

func (l *linearClassifier) Metrics() Metrics {
	n := l.set.Len()
	return Metrics{
		Backend:      "linear",
		Rules:        n,
		LookupCost:   n,
		MemoryBytes:  n * linearRuleBytes,
		BytesPerRule: linearRuleBytes,
		Entries:      n,
	}
}

// compiledClassifier serves lookups from the immutable flat-array form that
// Compile produces. This is the serve path for every tree backend: the
// pointer-linked build tree is discarded after compilation, and the same
// object is what SaveArtifact persists and warm starts reload. Its positions
// are indices into Rules(), which is the snapshot's rule list.
type compiledClassifier struct {
	c *compiled.Classifier
	m Metrics
}

func (a *compiledClassifier) Lookup(p rule.Packet) int32 { return int32(a.c.LookupIndex(p)) }

// LookupBatch serves the whole span through the compiled frontier walk
// (compiled.LookupBatch): a group of packets advances through each tree
// together instead of one dependent-load chain at a time.
func (a *compiledClassifier) LookupBatch(ps []rule.Packet, pos []int32) { a.c.LookupBatch(ps, pos) }

func (a *compiledClassifier) Metrics() Metrics { return a.m }

// Compiled exposes the artifact-ready form (the CompiledProvider interface).
func (a *compiledClassifier) Compiled() *compiled.Classifier { return a.c }

// CompiledProvider is implemented by classifiers that serve from a compiled
// flat-array form; Engine.SaveArtifact requires it.
type CompiledProvider interface {
	Compiled() *compiled.Classifier
}

// newTreeClassifier is the shared back half of every tree backend: compute
// the paper's tree metrics once, then compile the trees into the flat
// serving form.
func newTreeClassifier(backend string, set *rule.Set, trees []*tree.Tree) (Classifier, error) {
	m := treeMetrics(backend, set.Len(), tree.MultiMetrics(trees))
	cc, err := compiled.Compile(set, trees...)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling %s: %w", backend, err)
	}
	m.CompiledBytes = cc.Stats().MemoryBytes
	return &compiledClassifier{c: cc, m: m}, nil
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
	Register("linear", "Linear", func(set *rule.Set, opts Options) (Classifier, error) {
		return &linearClassifier{set: set}, nil
	})

	Register("hicuts", "HiCuts", func(set *rule.Set, opts Options) (Classifier, error) {
		cfg := hicuts.DefaultConfig()
		cfg.Binth = opts.Binth
		t, err := hicuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return newTreeClassifier("hicuts", set, []*tree.Tree{t})
	})

	Register("hypercuts", "HyperCuts", func(set *rule.Set, opts Options) (Classifier, error) {
		cfg := hypercuts.DefaultConfig()
		cfg.Binth = opts.Binth
		t, err := hypercuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return newTreeClassifier("hypercuts", set, []*tree.Tree{t})
	})

	Register("efficuts", "EffiCuts", func(set *rule.Set, opts Options) (Classifier, error) {
		cfg := efficuts.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := efficuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return newTreeClassifier("efficuts", set, c.Trees)
	})

	Register("cutsplit", "CutSplit", func(set *rule.Set, opts Options) (Classifier, error) {
		cfg := cutsplit.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := cutsplit.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return newTreeClassifier("cutsplit", set, c.Trees)
	})

	Register("neurocuts", "NeuroCuts", func(set *rule.Set, opts Options) (Classifier, error) {
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
			return nil, err
		}
		t, _ := trainer.BestTree()
		if t == nil {
			return nil, errors.New("engine: neurocuts training produced no tree")
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
