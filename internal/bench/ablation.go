package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"neurocuts/internal/classbench"
	"neurocuts/internal/core"
	"neurocuts/internal/engine"
	"neurocuts/internal/env"
	"neurocuts/internal/rule"
	"neurocuts/internal/tss"
)

// This file holds the ablation studies that go beyond the paper's figures:
//
//   - ApproachAblation places the decision-tree algorithms next to Tuple
//     Space Search, the hash-table approach the paper's related-work section
//     discusses (O(1) updates, lookup cost grows with the number of tuples),
//     on the same classifiers, quantifying the trade-offs that motivate
//     decision trees.
//   - TrafficAblation compares worst-case-trained NeuroCuts against
//     traffic-aware NeuroCuts (the average-time objective from the paper's
//     conclusion) on skewed traces.

// ApproachRow is one classifier's comparison across approaches.
type ApproachRow struct {
	Scenario Scenario
	// Entries per approach (tree nodes / TSS entries).
	Results []ApproachResult
}

// ApproachResult is one approach's modelled cost profile on one classifier.
type ApproachResult struct {
	Approach string
	// LookupCost is the approach's sequential lookup cost: node visits for
	// trees, tuple probes for TSS.
	LookupCost int
	// MemoryBytes is the modelled memory footprint (tree bytes, TSS table
	// bytes).
	MemoryBytes int
	// Entries is the number of stored elements (tree rule refs, TSS
	// entries).
	Entries int
}

// ApproachAblationResult holds every row of the ablation.
type ApproachAblationResult struct {
	Rows []ApproachRow
}

// ApproachAblation builds the four tree baselines through the engine
// registry, and Tuple Space Search directly from its package, over every
// scenario and reads their modelled costs. Wall clock is deliberately
// absent: the trees' belongs to the repository benchmark (benchmarks/e2e).
func ApproachAblation(scenarios []Scenario, opts Options) (ApproachAblationResult, error) {
	opts = opts.withDefaults()
	var out ApproachAblationResult
	for _, sc := range scenarios {
		set, err := sc.Generate()
		if err != nil {
			return out, err
		}
		row := ApproachRow{Scenario: sc}
		for _, name := range baselineBackends {
			_, m, err := engine.NewWithOptions(name, set, engine.Options{Binth: opts.Binth})
			if err != nil {
				return out, fmt.Errorf("%s: %s: %w", sc.Name(), engine.DisplayName(name), err)
			}
			row.Results = append(row.Results, ApproachResult{
				Approach:    engine.DisplayName(name),
				LookupCost:  m.LookupCost,
				MemoryBytes: m.MemoryBytes,
				Entries:     m.Entries,
			})
		}
		ts, err := tss.Build(set)
		if err != nil {
			return out, fmt.Errorf("%s: TSS: %w", sc.Name(), err)
		}
		tm := ts.Metrics()
		row.Results = append(row.Results,
			ApproachResult{Approach: "TSS", LookupCost: tm.Tuples, MemoryBytes: tm.MemoryBytes, Entries: tm.Entries})
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the ablation as a text table.
func (a ApproachAblationResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Ablation: decision trees vs Tuple Space Search")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "classifier\tapproach\tlookup cost\tmemory bytes\tentries")
	for _, row := range a.Rows {
		for _, r := range row.Results {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n",
				row.Scenario.Name(), r.Approach, r.LookupCost, r.MemoryBytes, r.Entries)
		}
	}
	tw.Flush()
}

// TrafficAblationRow compares worst-case-trained and traffic-trained
// NeuroCuts on the same classifier and skewed trace.
type TrafficAblationRow struct {
	Scenario Scenario
	// WorstTrained* are the metrics of the tree trained on the worst-case
	// objective; TrafficTrained* of the tree trained on the average-time
	// objective. AvgTime is measured over the evaluation trace in both
	// cases.
	WorstTrainedWorst   int
	WorstTrainedAvg     float64
	TrafficTrainedWorst int
	TrafficTrainedAvg   float64
}

// TrafficAblationResult holds the traffic-aware objective ablation.
type TrafficAblationResult struct {
	Rows []TrafficAblationRow
}

// TrafficAblation trains NeuroCuts twice per scenario — once with the
// paper's worst-case time objective and once with the traffic-aware
// average-time objective over a skewed trace — and reports both trees'
// worst-case and average lookup times on a held-out trace drawn from the
// same distribution.
func TrafficAblation(scenarios []Scenario, opts Options, traceLen int) (TrafficAblationResult, error) {
	opts = opts.withDefaults()
	if traceLen <= 0 {
		traceLen = 2000
	}
	var out TrafficAblationResult
	for i, sc := range scenarios {
		set, err := sc.Generate()
		if err != nil {
			return out, err
		}
		trainTrace := tracePackets(set, traceLen, opts.Seed+int64(10*i))
		evalTrace := tracePackets(set, traceLen, opts.Seed+int64(10*i)+5)

		worstCfg := neuroCutsConfig(opts, 1.0, env.ScaleLinear, env.PartitionNone, opts.Seed+int64(i))
		worstTrainer := core.NewTrainer(set, worstCfg)
		if _, err := worstTrainer.Train(); err != nil {
			return out, fmt.Errorf("%s: worst-case training: %w", sc.Name(), err)
		}
		worstTree, _ := worstTrainer.BestTree()

		trafficCfg := worstCfg
		trafficCfg.TrafficTrace = trainTrace
		trafficCfg.Seed = opts.Seed + int64(i) + 500
		trafficTrainer := core.NewTrainer(set, trafficCfg)
		if _, err := trafficTrainer.Train(); err != nil {
			return out, fmt.Errorf("%s: traffic-aware training: %w", sc.Name(), err)
		}
		trafficTree, _ := trafficTrainer.BestTree()

		out.Rows = append(out.Rows, TrafficAblationRow{
			Scenario:            sc,
			WorstTrainedWorst:   worstTree.ComputeMetrics().ClassificationTime,
			WorstTrainedAvg:     worstTree.AverageLookupTime(evalTrace),
			TrafficTrainedWorst: trafficTree.ComputeMetrics().ClassificationTime,
			TrafficTrainedAvg:   trafficTree.AverageLookupTime(evalTrace),
		})
	}
	return out, nil
}

// Write renders the traffic ablation as a text table.
func (a TrafficAblationResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Ablation: worst-case vs traffic-aware (average-time) NeuroCuts objective")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "classifier\tworst-trained: worst/avg\ttraffic-trained: worst/avg")
	for _, r := range a.Rows {
		fmt.Fprintf(tw, "%s\t%d / %.2f\t%d / %.2f\n",
			r.Scenario.Name(), r.WorstTrainedWorst, r.WorstTrainedAvg, r.TrafficTrainedWorst, r.TrafficTrainedAvg)
	}
	tw.Flush()
}

// tracePackets generates a rule-biased trace and strips it to packet keys.
func tracePackets(set *rule.Set, n int, seed int64) []rule.Packet {
	entries := classbench.GenerateTrace(set, n, seed)
	out := make([]rule.Packet, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}
