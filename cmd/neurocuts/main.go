// Command neurocuts trains a NeuroCuts policy on a packet classifier and
// reports the best decision tree it finds.
//
// The classifier comes either from a ClassBench-format file (-rules) or from
// the built-in generator (-family/-size). Example:
//
//	neurocuts -family fw5 -size 1000 -c 1 -partition none -timesteps 50000
//	neurocuts -rules my.rules -c 0 -scale log -partition efficuts -checkpoint policy.ckpt
//
// With -save-artifact the best tree is compiled into the flat-array serving
// form and written as a versioned artifact, so a later `classify -artifact`
// or `classifyd -artifact` serves it without retraining:
//
//	neurocuts -family acl1 -size 1000 -timesteps 50000 -save-artifact policy.ncaf
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/core"
	"neurocuts/internal/env"
)

func main() {
	var (
		rulesPath  = flag.String("rules", "", "classifier file in ClassBench format (overrides -family/-size)")
		family     = flag.String("family", "acl1", "ClassBench family to generate when -rules is not given")
		size       = flag.Int("size", 1000, "classifier size when generating")
		seed       = flag.Int64("seed", 1, "random seed")
		c          = flag.Float64("c", 1.0, "time-space coefficient (1 = time, 0 = space)")
		scale      = flag.String("scale", "linear", "reward scaling: linear or log")
		partition  = flag.String("partition", "none", "top-node partitioning: none, simple or efficuts")
		timesteps  = flag.Int("timesteps", 50000, "total training timesteps")
		batch      = flag.Int("batch", 5000, "timesteps per PPO batch")
		rollout    = flag.Int("rollout", 15000, "max timesteps per rollout before truncation")
		maxDepth   = flag.Int("maxdepth", 100, "max tree depth before truncation")
		binth      = flag.Int("binth", 16, "leaf threshold")
		workers    = flag.Int("workers", 4, "parallel rollout workers")
		hidden     = flag.String("hidden", "64,64", "hidden layer sizes, comma separated")
		checkpoint = flag.String("checkpoint", "", "write the trained policy to this file")
		saveArt    = flag.String("save-artifact", "", "compile the best tree and write it as a classifier artifact")
		quiet      = flag.Bool("quiet", false, "suppress per-iteration progress")
	)
	flag.Parse()

	// The run's label: the rule file, or the family it generates and the size.
	name := *rulesPath
	if name == "" {
		fam, err := classbench.FamilyByName(*family)
		if err != nil {
			fatal(err)
		}
		name = fmt.Sprintf("%s_%d", fam.Name, *size)
	}
	set, err := classbench.Load(*rulesPath, *family, *size, *seed)
	if err != nil {
		fatal(err)
	}

	cfg := core.Scaled(1000)
	cfg.TimeSpaceCoeff = *c
	cfg.Binth = *binth
	cfg.MaxTimesteps = *timesteps
	cfg.BatchTimesteps = *batch
	cfg.MaxStepsPerRollout = *rollout
	cfg.MaxDepth = *maxDepth
	cfg.Workers = *workers
	cfg.Seed = *seed
	cfg.HiddenLayers = parseHidden(*hidden)
	switch strings.ToLower(*scale) {
	case "log":
		cfg.Scale = env.ScaleLog
	case "linear", "x":
		cfg.Scale = env.ScaleLinear
	default:
		fatal(fmt.Errorf("unknown reward scale %q", *scale))
	}
	switch strings.ToLower(*partition) {
	case "none":
		cfg.Partition = env.PartitionNone
	case "simple":
		cfg.Partition = env.PartitionSimple
	case "efficuts":
		cfg.Partition = env.PartitionEffiCuts
	default:
		fatal(fmt.Errorf("unknown partition mode %q", *partition))
	}

	fmt.Printf("training NeuroCuts on %s (%d rules): c=%.2f scale=%s partition=%s budget=%d steps\n",
		name, set.Len(), *c, *scale, *partition, *timesteps)

	trainer := core.NewTrainer(set, cfg)
	start := time.Now()
	history, err := trainer.Train()
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		for _, it := range history {
			fmt.Printf("iter %3d  steps %8d  rollouts %4d  mean return %9.2f  best objective %9.2f  kl %.4f\n",
				it.Iteration, it.Timesteps, it.Rollouts, it.MeanReturn, it.BestObjective, it.PPO.KL)
		}
	}

	best, objective := trainer.BestTree()
	m := best.ComputeMetrics()
	fmt.Printf("training finished in %s: %d trees built, %d timesteps\n",
		time.Since(start).Round(time.Millisecond), trainer.TreesBuilt(), trainer.TotalSteps())
	fmt.Printf("best tree: objective=%.2f time=%d bytes/rule=%.1f nodes=%d depth=%d\n",
		objective, m.ClassificationTime, m.BytesPerRule, m.Nodes, m.MaxDepth)
	if m.UnfinishedLeaves > 0 {
		fmt.Printf("warning: the best tree is incomplete (its rollout was truncated): %d leaves hold more than %d rules, the largest %d of %d; time=%d counts each as one visit, a lookup scans them\n",
			m.UnfinishedLeaves, *binth, m.MaxLeafRules, set.Len(), m.ClassificationTime)
	}

	if *checkpoint != "" {
		if err := trainer.SaveCheckpoint(*checkpoint); err != nil {
			fatal(err)
		}
		fmt.Printf("policy checkpoint written to %s\n", *checkpoint)
	}

	if *saveArt != "" {
		cc, err := compiled.Compile(set, best)
		if err != nil {
			fatal(err)
		}
		meta := compiled.Metadata{
			Backend:     "neurocuts",
			Rules:       set.Len(),
			Binth:       *binth,
			Source:      name,
			CreatedUnix: time.Now().Unix(),
		}
		if err := compiled.SaveFile(*saveArt, cc, meta); err != nil {
			fatal(err)
		}
		st := cc.Stats()
		fmt.Printf("compiled artifact written to %s (%d nodes, %d rule refs, %d bytes serve form = %d nodes + %d leaf spans + %d cut geometry + %d packed rules, schema v%d)\n",
			*saveArt, st.Nodes, st.LeafRuleRefs, st.MemoryBytes,
			st.NodeBytes, st.LeafSpanBytes, st.CutBytes, st.PackedBytes, compiled.SchemaVersion)
	}
}

func parseHidden(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err == nil && v > 0 {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = []int{64, 64}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neurocuts:", err)
	os.Exit(1)
}
