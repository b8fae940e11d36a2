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
	"neurocuts/internal/tcam"
	"neurocuts/internal/tree"
	"neurocuts/internal/tss"
)

// adapter lifts a backend's single-packet lookup and metrics functions into
// the Classifier interface. ClassifyBatch is a sequential loop here; the
// Engine layers sharding on top of it.
type adapter struct {
	classify func(p rule.Packet) (rule.Rule, bool)
	metrics  func() Metrics
}

func (a *adapter) Classify(p rule.Packet) (rule.Rule, bool) { return a.classify(p) }

func (a *adapter) ClassifyBatch(ps []rule.Packet, out []Result) {
	for i, p := range ps {
		out[i].Rule, out[i].OK = a.classify(p)
	}
}

func (a *adapter) Metrics() Metrics { return a.metrics() }

// compiledClassifier serves lookups from the immutable flat-array form that
// Compile produces. This is the serve path for every tree backend: the
// pointer-linked build tree is discarded after compilation, and the same
// object is what SaveArtifact persists and warm starts reload.
type compiledClassifier struct {
	c *compiled.Classifier
	m Metrics
}

func (a *compiledClassifier) Classify(p rule.Packet) (rule.Rule, bool) { return a.c.Lookup(p) }

// idxBufs recycles the rule-index scratch that bridges LookupBatch (which
// reports int32 indices) to the engine's Result shape. A buffered channel
// rather than sync.Pool so the batch path's zero-alloc guarantee is
// deterministic under the race detector too (Pool drops a fraction of Puts
// there); extras beyond the freelist capacity simply allocate.
var idxBufs = make(chan *[]int32, 64)

func getIdxBuf(n int) *[]int32 {
	select {
	case bp := <-idxBufs:
		if cap(*bp) < n {
			*bp = make([]int32, n)
		}
		return bp
	default:
		b := make([]int32, n)
		return &b
	}
}

func putIdxBuf(bp *[]int32) {
	select {
	case idxBufs <- bp:
	default:
	}
}

// ClassifyBatch serves the whole span through the compiled frontier walk
// (compiled.LookupBatch): a group of packets advances through each tree
// together instead of one dependent-load chain at a time. Results are
// identical to per-packet Classify calls.
func (a *compiledClassifier) ClassifyBatch(ps []rule.Packet, out []Result) {
	bp := getIdxBuf(len(ps))
	idx := (*bp)[:len(ps)]
	a.c.LookupBatch(ps, idx)
	rules := a.c.Rules()
	for i, ix := range idx {
		if ix >= 0 {
			out[i].Rule, out[i].OK = rules[ix], true
		} else {
			out[i].Rule, out[i].OK = rule.Rule{}, false
		}
	}
	putIdxBuf(bp)
}

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

// linearRuleBytes models one stored rule for the linear-search backend:
// five 16-byte ranges plus priority and ID.
const linearRuleBytes = rule.NumDims*16 + 16

func init() {
	Register("linear", "Linear", func(set *rule.Set, opts Options) (Classifier, error) {
		return &adapter{
			classify: set.Match,
			metrics: func() Metrics {
				n := set.Len()
				return Metrics{
					Backend:      "linear",
					Rules:        n,
					LookupCost:   n,
					MemoryBytes:  n * linearRuleBytes,
					BytesPerRule: linearRuleBytes,
					Entries:      n,
				}
			},
		}, nil
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

	Register("tss", "TSS", func(set *rule.Set, opts Options) (Classifier, error) {
		c, err := tss.Build(set)
		if err != nil {
			return nil, err
		}
		return &adapter{
			classify: c.Classify,
			metrics: func() Metrics {
				m := c.Metrics()
				return Metrics{
					Backend:      "tss",
					Rules:        set.Len(),
					LookupCost:   m.Tuples,
					MemoryBytes:  m.MemoryBytes,
					BytesPerRule: m.BytesPerRule,
					Entries:      m.Entries,
				}
			},
		}, nil
	})

	Register("tcam", "TCAM", func(set *rule.Set, opts Options) (Classifier, error) {
		c, err := tcam.Build(set, opts.TCAMExpandLimit)
		if err != nil {
			return nil, err
		}
		return &adapter{
			classify: c.Classify,
			metrics: func() Metrics {
				m := c.Metrics()
				em := Metrics{
					Backend:     "tcam",
					Rules:       set.Len(),
					LookupCost:  m.LookupTime,
					MemoryBytes: m.Bits / 8,
					Entries:     m.Entries,
				}
				if em.Rules > 0 {
					em.BytesPerRule = float64(em.MemoryBytes) / float64(em.Rules)
				}
				return em
			},
		}, nil
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
