package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"neurocuts/internal/core"
	"neurocuts/internal/engine"
	"neurocuts/internal/env"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// Figure8Result holds the classification-time comparison of Figure 8 plus
// the Section 6.1 headline summary (NeuroCuts improvement over the best
// baseline per classifier).
type Figure8Result struct {
	Rows    []Row
	Summary ImprovementSummary
}

// Figure8 reproduces Figure 8: classification time (tree depth / node
// visits) for HiCuts, HyperCuts, EffiCuts, CutSplit and time-optimised
// NeuroCuts across the ClassBench classifiers.
func Figure8(scenarios []Scenario, opts Options) (Figure8Result, error) {
	opts = opts.withDefaults()
	var out Figure8Result
	for i, sc := range scenarios {
		set, err := sc.Generate()
		if err != nil {
			return out, err
		}
		results, err := runBaselines(set, opts.Binth)
		if err != nil {
			return out, fmt.Errorf("%s: %w", sc.Name(), err)
		}
		// Time-optimised NeuroCuts: c=1, linear scaling, no partitioning
		// (Section 6.1: the best time-optimised trees use no or simple
		// top-node partitioning).
		cfg := neuroCutsConfig(opts, 1.0, env.ScaleLinear, env.PartitionNone, opts.Seed+int64(i))
		nc, _, err := trainNeuroCuts(set, cfg, NameNeuroCuts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", sc.Name(), err)
		}
		results = append(results, nc)
		out.Rows = append(out.Rows, Row{Scenario: sc, Results: results})
	}
	sortRowsByName(out.Rows)
	summary, err := summarizeAgainstBestBaseline(out.Rows, NameNeuroCuts, true)
	if err != nil {
		return out, err
	}
	out.Summary = summary
	return out, nil
}

// Write renders the figure data and summary as text.
func (f Figure8Result) Write(w io.Writer) {
	writeTable(w, "Figure 8: classification time (node visits), lower is better", f.Rows, true)
	fmt.Fprintf(w, "NeuroCuts vs best baseline (classification time): %s\n", f.Summary)
}

// Figure9Result holds the memory-footprint comparison of Figure 9 plus the
// Section 6.2 summaries against EffiCuts and CutSplit.
type Figure9Result struct {
	Rows            []Row
	VsBestBaseline  ImprovementSummary
	VsEffiCuts      ImprovementSummary
	VsCutSplit      ImprovementSummary
	MedianBytesRule float64
}

// Figure9 reproduces Figure 9: memory footprint (bytes per rule) for the
// baselines and space-optimised NeuroCuts (c=0, log scaling, EffiCuts
// top-node partitioning).
func Figure9(scenarios []Scenario, opts Options) (Figure9Result, error) {
	opts = opts.withDefaults()
	var out Figure9Result
	for i, sc := range scenarios {
		set, err := sc.Generate()
		if err != nil {
			return out, err
		}
		results, err := runBaselines(set, opts.Binth)
		if err != nil {
			return out, fmt.Errorf("%s: %w", sc.Name(), err)
		}
		cfg := neuroCutsConfig(opts, 0.0, env.ScaleLog, env.PartitionEffiCuts, opts.Seed+int64(i))
		nc, _, err := trainNeuroCuts(set, cfg, NameNeuroCuts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", sc.Name(), err)
		}
		results = append(results, nc)
		out.Rows = append(out.Rows, Row{Scenario: sc, Results: results})
	}
	sortRowsByName(out.Rows)

	var ncBytes, effiBytes, csBytes []float64
	for _, r := range out.Rows {
		nc, _ := r.Get(NameNeuroCuts)
		ef, _ := r.Get(NameEffiCuts)
		cs, _ := r.Get(NameCutSplit)
		ncBytes = append(ncBytes, nc.BytesPerRule)
		effiBytes = append(effiBytes, ef.BytesPerRule)
		csBytes = append(csBytes, cs.BytesPerRule)
	}
	var err error
	if out.VsBestBaseline, err = summarizeAgainstBestBaseline(out.Rows, NameNeuroCuts, false); err != nil {
		return out, err
	}
	if out.VsEffiCuts, err = summarize(ncBytes, effiBytes); err != nil {
		return out, err
	}
	if out.VsCutSplit, err = summarize(ncBytes, csBytes); err != nil {
		return out, err
	}
	out.MedianBytesRule = median(ncBytes)
	return out, nil
}

// Write renders the figure data and summaries as text.
func (f Figure9Result) Write(w io.Writer) {
	writeTable(w, "Figure 9: memory footprint (bytes per rule), lower is better", f.Rows, false)
	fmt.Fprintf(w, "NeuroCuts vs best baseline (bytes/rule): %s\n", f.VsBestBaseline)
	fmt.Fprintf(w, "NeuroCuts vs EffiCuts  (bytes/rule): %s\n", f.VsEffiCuts)
	fmt.Fprintf(w, "NeuroCuts vs CutSplit  (bytes/rule): %s\n", f.VsCutSplit)
}

// Figure10Result holds the sorted per-classifier improvements of NeuroCuts
// (restricted to the EffiCuts partition action) over EffiCuts, for space and
// time — the two panels of Figure 10.
type Figure10Result struct {
	Scenarios []string
	// SpaceImprovements and TimeImprovements are sorted ascending
	// (1 - NeuroCuts/EffiCuts); positive means NeuroCuts wins.
	SpaceImprovements []float64
	TimeImprovements  []float64
	SpaceSummary      ImprovementSummary
	TimeSummary       ImprovementSummary
}

// Figure10 reproduces Figure 10: NeuroCuts constrained to the EffiCuts
// top-node partition, compared against EffiCuts itself on every classifier.
func Figure10(scenarios []Scenario, opts Options) (Figure10Result, error) {
	opts = opts.withDefaults()
	var out Figure10Result
	var ncSpace, efSpace, ncTime, efTime []float64
	for i, sc := range scenarios {
		set, err := sc.Generate()
		if err != nil {
			return out, err
		}
		_, em, err := engine.NewWithOptions("efficuts", set, engine.Options{Binth: opts.Binth})
		if err != nil {
			return out, fmt.Errorf("%s: %w", sc.Name(), err)
		}

		// NeuroCuts with only the EffiCuts partition allowed, optimising a
		// blended objective (the Section 6.3 configuration).
		cfg := neuroCutsConfig(opts, 0.5, env.ScaleLog, env.PartitionEffiCuts, opts.Seed+int64(i))
		nc, _, err := trainNeuroCuts(set, cfg, NameNeuroCutsEffi)
		if err != nil {
			return out, fmt.Errorf("%s: %w", sc.Name(), err)
		}

		out.Scenarios = append(out.Scenarios, sc.Name())
		ncSpace = append(ncSpace, float64(nc.MemoryBytes))
		efSpace = append(efSpace, float64(em.MemoryBytes))
		ncTime = append(ncTime, float64(nc.Time))
		efTime = append(efTime, float64(em.LookupCost))
	}
	out.SpaceImprovements = sortedImprovements(ncSpace, efSpace)
	out.TimeImprovements = sortedImprovements(ncTime, efTime)
	var err error
	if out.SpaceSummary, err = summarize(ncSpace, efSpace); err != nil {
		return out, err
	}
	if out.TimeSummary, err = summarize(ncTime, efTime); err != nil {
		return out, err
	}
	return out, nil
}

// Write renders the two panels of Figure 10 as text.
func (f Figure10Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 10(a): sorted space improvement of NeuroCuts(EffiCuts partition) over EffiCuts (1 - a/b)")
	for i, v := range f.SpaceImprovements {
		fmt.Fprintf(w, "  rank %2d: %+.2f\n", i+1, v)
	}
	fmt.Fprintf(w, "  summary: %s\n", f.SpaceSummary)
	fmt.Fprintln(w, "Figure 10(b): sorted time improvement of NeuroCuts(EffiCuts partition) over EffiCuts (1 - a/b)")
	for i, v := range f.TimeImprovements {
		fmt.Fprintf(w, "  rank %2d: %+.2f\n", i+1, v)
	}
	fmt.Fprintf(w, "  summary: %s\n", f.TimeSummary)
}

// Figure11Point is one point of the c-sweep in Figure 11.
type Figure11Point struct {
	C                  float64
	MedianTime         float64
	MedianBytesPerRule float64
}

// Figure11Result holds the time-space tradeoff sweep of Figure 11.
type Figure11Result struct {
	Points []Figure11Point
}

// Figure11 reproduces Figure 11: for each value of the time-space
// coefficient c, NeuroCuts (simple partitioning, log reward scaling) is
// trained on every scenario and the medians of the best classification time
// and bytes per rule are reported.
func Figure11(scenarios []Scenario, opts Options, cValues []float64) (Figure11Result, error) {
	opts = opts.withDefaults()
	if len(cValues) == 0 {
		cValues = []float64{0, 0.1, 0.5, 1}
	}
	var out Figure11Result
	for ci, c := range cValues {
		var times, bytes []float64
		for i, sc := range scenarios {
			set, err := sc.Generate()
			if err != nil {
				return out, err
			}
			cfg := neuroCutsConfig(opts, c, env.ScaleLog, env.PartitionSimple, opts.Seed+int64(1000*ci+i))
			nc, _, err := trainNeuroCuts(set, cfg, NameNeuroCuts)
			if err != nil {
				return out, fmt.Errorf("%s (c=%.1f): %w", sc.Name(), c, err)
			}
			times = append(times, float64(nc.Time))
			bytes = append(bytes, nc.BytesPerRule)
		}
		out.Points = append(out.Points, Figure11Point{
			C:                  c,
			MedianTime:         median(times),
			MedianBytesPerRule: median(bytes),
		})
	}
	return out, nil
}

// Write renders the sweep as text.
func (f Figure11Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: time-space tradeoff sweep (simple partitioning, log reward scaling)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "c\tmedian classification time\tmedian bytes per rule")
	for _, p := range f.Points {
		fmt.Fprintf(tw, "%.1f\t%.1f\t%.1f\n", p.C, p.MedianTime, p.MedianBytesPerRule)
	}
	tw.Flush()
}

// Figure5Snapshot captures the tree shape at one point during training: the
// number of nodes per level and the distribution of cut dimensions per
// level.
type Figure5Snapshot struct {
	// Label names the snapshot ("random policy", "mid training",
	// "converged", "HiCuts").
	Label string
	// LevelSizes[d] is the number of nodes at depth d.
	LevelSizes []int
	// CutDims[d][dim] counts cut nodes at depth d cutting dimension dim.
	CutDims []map[rule.Dimension]int
	// Time and MemoryBytes summarise the tree.
	Time        int
	MemoryBytes int
}

// Figure5Result holds the learning-visualisation data of Figure 5.
type Figure5Result struct {
	Scenario  Scenario
	Snapshots []Figure5Snapshot
}

// Figure5 reproduces Figure 5: how the NeuroCuts policy's trees evolve while
// learning to split the fw5 classifier, against the HiCuts tree for the same
// rules. The snapshots are (1) a tree from the randomly initialised policy,
// (2) a tree from a partially trained policy, (3) the best tree after
// training, and (4) HiCuts.
func Figure5(sc Scenario, opts Options) (Figure5Result, error) {
	opts = opts.withDefaults()
	out := Figure5Result{Scenario: sc}
	set, err := sc.Generate()
	if err != nil {
		return out, err
	}

	snapshot := func(label string, t *tree.Tree) Figure5Snapshot {
		m := t.ComputeMetrics()
		return Figure5Snapshot{
			Label:       label,
			LevelSizes:  t.LevelSizes(),
			CutDims:     t.CutDimensionHistogram(),
			Time:        m.ClassificationTime,
			MemoryBytes: m.MemoryBytes,
		}
	}

	cfg := neuroCutsConfig(opts, 1.0, env.ScaleLinear, env.PartitionNone, opts.Seed)
	trainer := core.NewTrainer(set, cfg)

	// Random policy tree.
	randomTree, _ := trainer.SampleTree(opts.Seed, false)
	out.Snapshots = append(out.Snapshots, snapshot("random policy", randomTree))

	// Half the budget, then snapshot again.
	half := cfg
	half.MaxTimesteps = cfg.MaxTimesteps / 2
	halfTrainer := core.NewTrainer(set, half)
	if _, err := halfTrainer.Train(); err != nil {
		return out, err
	}
	midTree, _ := halfTrainer.SampleTree(opts.Seed+1, true)
	out.Snapshots = append(out.Snapshots, snapshot("mid training", midTree))

	// Full budget.
	if _, err := trainer.Train(); err != nil {
		return out, err
	}
	best, _ := trainer.BestTree()
	out.Snapshots = append(out.Snapshots, snapshot("converged", best))

	// HiCuts comparison (Figure 5b).
	hi, err := engine.BuildTrees("hicuts", set, engine.Options{Binth: opts.Binth})
	if err != nil {
		return out, err
	}
	out.Snapshots = append(out.Snapshots, snapshot("HiCuts", hi[0]))
	return out, nil
}

// Write renders each snapshot's per-level node counts and cut dimensions.
func (f Figure5Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: tree shape while learning %s\n", f.Scenario.Name())
	for _, s := range f.Snapshots {
		fmt.Fprintf(w, "  [%s] time=%d memory=%dB levels=%d\n", s.Label, s.Time, s.MemoryBytes, len(s.LevelSizes))
		for depth, n := range s.LevelSizes {
			line := fmt.Sprintf("    level %2d: %6d nodes", depth, n)
			if depth < len(s.CutDims) && len(s.CutDims[depth]) > 0 {
				line += "  cuts:"
				for _, d := range rule.Dimensions() {
					if c := s.CutDims[depth][d]; c > 0 {
						line += fmt.Sprintf(" %s=%d", d, c)
					}
				}
			}
			fmt.Fprintln(w, line)
		}
	}
}

// Figure6Variation describes one tree sampled from the stochastic policy.
type Figure6Variation struct {
	Seed        int64
	Time        int
	MemoryBytes int
	Nodes       int
	LevelSizes  []int
}

// Figure6Result holds the tree variations of Figure 6.
type Figure6Result struct {
	Scenario   Scenario
	Variations []Figure6Variation
}

// Figure6 reproduces Figure 6: after training a single stochastic policy on
// the acl4 classifier, several random tree variations are drawn from it.
func Figure6(sc Scenario, opts Options, variations int) (Figure6Result, error) {
	opts = opts.withDefaults()
	if variations <= 0 {
		variations = 4
	}
	out := Figure6Result{Scenario: sc}
	set, err := sc.Generate()
	if err != nil {
		return out, err
	}
	cfg := neuroCutsConfig(opts, 1.0, env.ScaleLinear, env.PartitionNone, opts.Seed)
	trainer := core.NewTrainer(set, cfg)
	if _, err := trainer.Train(); err != nil {
		return out, err
	}
	for i := 0; i < variations; i++ {
		seed := opts.Seed + int64(100+i)
		t, m := trainer.SampleTree(seed, false)
		out.Variations = append(out.Variations, Figure6Variation{
			Seed:        seed,
			Time:        m.ClassificationTime,
			MemoryBytes: m.MemoryBytes,
			Nodes:       m.Nodes,
			LevelSizes:  t.LevelSizes(),
		})
	}
	return out, nil
}

// Write renders the variations as text.
func (f Figure6Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: tree variations sampled from one stochastic policy on %s\n", f.Scenario.Name())
	for i, v := range f.Variations {
		fmt.Fprintf(w, "  variation %d (seed %d): time=%d memory=%dB nodes=%d levels=%v\n",
			i+1, v.Seed, v.Time, v.MemoryBytes, v.Nodes, v.LevelSizes)
	}
}

// Table1 renders the hyperparameter table of the paper (Table 1) from the
// defaults encoded in core.DefaultConfig and rl.DefaultConfig.
func Table1(w io.Writer) {
	cfg := core.DefaultConfig()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 1: NeuroCuts hyperparameters")
	fmt.Fprintln(tw, "hyperparameter\tvalue")
	fmt.Fprintln(tw, "Time-space coefficient c\t<set by user>")
	fmt.Fprintln(tw, "Top-node partitioning\t{none, simple, EffiCuts}")
	fmt.Fprintln(tw, "Reward scaling function f\t{x, log(x)}")
	fmt.Fprintln(tw, "Max timesteps per rollout\t{1000, 5000, 15000}")
	fmt.Fprintln(tw, "Max tree depth\t{100, 500}")
	fmt.Fprintf(tw, "Max timesteps to train\t%d\n", cfg.MaxTimesteps)
	fmt.Fprintf(tw, "Max timesteps per batch\t%d\n", cfg.BatchTimesteps)
	fmt.Fprintln(tw, "Model type\tfully-connected")
	fmt.Fprintln(tw, "Model nonlinearity\ttanh")
	fmt.Fprintf(tw, "Model hidden layers\t%v\n", cfg.HiddenLayers)
	fmt.Fprintln(tw, "Weight sharing between theta, theta_v\ttrue")
	fmt.Fprintf(tw, "Learning rate\t%g\n", cfg.PPO.LearningRate)
	fmt.Fprintln(tw, "Discount factor gamma\t1.0")
	fmt.Fprintf(tw, "PPO entropy coefficient\t%g\n", cfg.PPO.EntropyCoeff)
	fmt.Fprintf(tw, "PPO clip param\t%g\n", cfg.PPO.ClipParam)
	fmt.Fprintf(tw, "PPO VF clip param\t%g\n", cfg.PPO.VFClipParam)
	fmt.Fprintf(tw, "PPO KL target\t%g\n", cfg.PPO.KLTarget)
	fmt.Fprintf(tw, "SGD iterations per batch\t%d\n", cfg.PPO.Epochs)
	fmt.Fprintf(tw, "SGD minibatch size\t%d\n", cfg.PPO.MinibatchSize)
	tw.Flush()
}
