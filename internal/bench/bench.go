// Package bench is the evaluation harness: it rebuilds, for every table and
// figure in the paper's evaluation section, the data series the paper plots,
// using the algorithms implemented in this repository. Absolute numbers
// differ from the paper (different rule generators, training budgets and
// cost constants), but the harness reports the same rows/series so the
// qualitative comparison — who wins, by roughly what factor — can be checked
// directly.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"neurocuts/internal/classbench"
	"neurocuts/internal/core"
	"neurocuts/internal/engine"
	"neurocuts/internal/env"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// Scenario identifies one classifier of the evaluation: a ClassBench family
// at a given size.
type Scenario struct {
	// Family is the seed family name (acl1..acl5, fw1..fw5, ipc1, ipc2).
	Family string
	// Size is the number of rules.
	Size int
	// Seed makes generation deterministic.
	Seed int64
}

// Name returns the paper-style scenario name, e.g. "acl1_1k".
func (s Scenario) Name() string {
	switch {
	case s.Size >= 1000 && s.Size%1000 == 0:
		return fmt.Sprintf("%s_%dk", s.Family, s.Size/1000)
	default:
		return fmt.Sprintf("%s_%d", s.Family, s.Size)
	}
}

// Generate builds the scenario's classifier.
func (s Scenario) Generate() (*rule.Set, error) {
	fam, err := classbench.FamilyByName(s.Family)
	if err != nil {
		return nil, err
	}
	return classbench.Generate(fam, s.Size, s.Seed), nil
}

// DefaultScenarios returns one scenario per ClassBench family at the given
// size (the paper uses 1k, 10k and 100k; the harness default keeps the full
// 12-family sweep at whatever size the caller affords).
func DefaultScenarios(size int) []Scenario {
	var out []Scenario
	for _, f := range classbench.Families() {
		out = append(out, Scenario{Family: f.Name, Size: size, Seed: 1})
	}
	return out
}

// Options tunes how much work the harness does, so the same code can drive
// quick regression runs and full-scale reproductions.
type Options struct {
	// Size is the classifier size per scenario.
	Size int
	// Seed seeds classifier generation and training.
	Seed int64
	// TrainTimesteps is the NeuroCuts training budget per classifier; the
	// paper uses up to 10M, the quick defaults a few thousand.
	TrainTimesteps int
	// BatchTimesteps is the PPO batch size.
	BatchTimesteps int
	// Workers is the number of parallel rollout workers per trainer.
	Workers int
	// Binth is the leaf threshold shared by all algorithms.
	Binth int
}

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TrainTimesteps <= 0 {
		o.TrainTimesteps = 1500
	}
	if o.BatchTimesteps <= 0 {
		o.BatchTimesteps = 500
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Binth <= 0 {
		o.Binth = tree.DefaultBinth
	}
	return o
}

// AlgorithmResult is one algorithm's outcome on one classifier.
type AlgorithmResult struct {
	// Algorithm is the display name.
	Algorithm string
	// Time is the worst-case classification time (node visits).
	Time int
	// BytesPerRule is the memory footprint divided by the rule count.
	BytesPerRule float64
	// MemoryBytes is the total memory footprint.
	MemoryBytes int
}

// Row is the full comparison on one classifier.
type Row struct {
	Scenario Scenario
	Results  []AlgorithmResult
}

// Get returns the named algorithm's result in the row.
func (r Row) Get(name string) (AlgorithmResult, bool) {
	for _, a := range r.Results {
		if a.Algorithm == name {
			return a, true
		}
	}
	return AlgorithmResult{}, false
}

// Algorithm display names used across the harness.
const (
	NameEffiCuts       = "EffiCuts"
	NameCutSplit       = "CutSplit"
	NameNeuroCuts      = "NeuroCuts"
	NameNeuroCutsTime  = "NeuroCuts(time)"
	NameNeuroCutsSpace = "NeuroCuts(space)"
	NameNeuroCutsEffi  = "NeuroCuts(EffiCuts)"
)

// baselineBackends are the hand-tuned tree algorithms the paper compares
// NeuroCuts against, by engine registry name.
var baselineBackends = []string{"hicuts", "hypercuts", "efficuts", "cutsplit"}

// runBaselines executes the four hand-tuned algorithms on the classifier
// through the engine registry.
func runBaselines(set *rule.Set, binth int) ([]AlgorithmResult, error) {
	var out []AlgorithmResult
	for _, name := range baselineBackends {
		_, m, err := engine.NewWithOptions(name, set, engine.Options{Binth: binth})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", engine.DisplayName(name), err)
		}
		out = append(out, AlgorithmResult{engine.DisplayName(name), m.LookupCost, m.BytesPerRule, m.MemoryBytes})
	}
	return out, nil
}

// neuroCutsConfig builds a trainer configuration for the harness.
func neuroCutsConfig(o Options, c float64, scale env.RewardScale, part env.PartitionMode, seed int64) core.Config {
	cfg := core.Scaled(1000)
	cfg.TimeSpaceCoeff = c
	cfg.Scale = scale
	cfg.Partition = part
	cfg.Binth = o.Binth
	cfg.MaxTimesteps = o.TrainTimesteps
	cfg.BatchTimesteps = o.BatchTimesteps
	// Rollout truncation follows Section 5.1: it must scale with the
	// classifier ("large enough to enable solving the problem, but not so
	// large that it slows down the initial phase of training"). Untruncated
	// rollouts from the random initial policy would otherwise swallow the
	// whole batch budget.
	cfg.MaxStepsPerRollout = min(max(2*o.Size, 500), 15000)
	cfg.Workers = o.Workers
	cfg.Seed = seed
	return cfg
}

// trainNeuroCuts trains NeuroCuts with the given objective and returns the
// best tree's metrics.
func trainNeuroCuts(set *rule.Set, cfg core.Config, name string) (AlgorithmResult, *core.Trainer, error) {
	trainer := core.NewTrainer(set, cfg)
	if _, err := trainer.Train(); err != nil {
		return AlgorithmResult{}, nil, fmt.Errorf("bench: training %s: %w", name, err)
	}
	best, _ := trainer.BestTree()
	m := best.ComputeMetrics()
	return AlgorithmResult{name, m.ClassificationTime, m.BytesPerRule, m.MemoryBytes}, trainer, nil
}

// writeTable renders rows of (scenario, per-algorithm metric) as a text
// table to w; metric selects Time (true) or BytesPerRule (false).
func writeTable(w io.Writer, title string, rows []Row, timeMetric bool) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(rows) == 0 {
		tw.Flush()
		return
	}
	header := "classifier"
	for _, a := range rows[0].Results {
		header += "\t" + a.Algorithm
	}
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		line := r.Scenario.Name()
		for _, a := range r.Results {
			if timeMetric {
				line += fmt.Sprintf("\t%d", a.Time)
			} else {
				line += fmt.Sprintf("\t%.1f", a.BytesPerRule)
			}
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
}

// summarizeAgainstBestBaseline computes the Section 6.1-style improvement
// summary of the NeuroCuts column against the minimum of the four baselines,
// per classifier.
func summarizeAgainstBestBaseline(rows []Row, neuroName string, timeMetric bool) (ImprovementSummary, error) {
	var ours, best []float64
	for _, r := range rows {
		nc, ok := r.Get(neuroName)
		if !ok {
			continue
		}
		bestBaseline := -1.0
		for _, a := range r.Results {
			if a.Algorithm == neuroName || a.Algorithm == NameNeuroCutsTime ||
				a.Algorithm == NameNeuroCutsSpace || a.Algorithm == NameNeuroCutsEffi {
				continue
			}
			v := float64(a.Time)
			if !timeMetric {
				v = a.BytesPerRule
			}
			if bestBaseline < 0 || v < bestBaseline {
				bestBaseline = v
			}
		}
		if bestBaseline <= 0 {
			continue
		}
		v := float64(nc.Time)
		if !timeMetric {
			v = nc.BytesPerRule
		}
		ours = append(ours, v)
		best = append(best, bestBaseline)
	}
	return summarize(ours, best)
}

// sortRowsByName keeps the paper's classifier ordering (acl*, fw*, ipc*).
func sortRowsByName(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Scenario.Name() < rows[j].Scenario.Name() })
}
