// Command evalbench regenerates the tables and figures of the paper's
// evaluation section using the algorithms in this repository.
//
// Examples:
//
//	evalbench -fig 8 -size 1000 -timesteps 50000     # Figure 8 at 1k scale
//	evalbench -fig all -size 300 -timesteps 2000     # quick pass over everything
//	evalbench -table 1                               # print the hyperparameter table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"neurocuts/internal/bench"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: 5, 6, 8, 9, 10, 11, ablation, traffic or all")
		table     = flag.Int("table", 0, "table to print (1)")
		size      = flag.Int("size", 300, "rules per classifier")
		timesteps = flag.Int("timesteps", 2000, "NeuroCuts training budget per classifier")
		batch     = flag.Int("batch", 0, "PPO batch size (default timesteps/5)")
		workers   = flag.Int("workers", 4, "parallel rollout workers")
		seed      = flag.Int64("seed", 1, "random seed")
		families  = flag.String("families", "", "comma-separated family subset (default: all 12)")
		jsonOut   = flag.String("json", "", "also write the result structs as JSON to this file")
	)
	flag.Parse()

	if *table == 1 {
		bench.Table1(os.Stdout)
		if *fig == "" {
			return
		}
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "evalbench: nothing to do; pass -fig or -table (see -h)")
		os.Exit(2)
	}

	opts := bench.Options{
		Size:           *size,
		Seed:           *seed,
		TrainTimesteps: *timesteps,
		BatchTimesteps: *batch,
		Workers:        *workers,
	}
	if opts.BatchTimesteps == 0 {
		opts.BatchTimesteps = max(200, *timesteps/5)
	}

	scenarios := bench.DefaultScenarios(*size)
	if *families != "" {
		var filtered []bench.Scenario
		want := map[string]bool{}
		for _, f := range strings.Split(*families, ",") {
			want[strings.TrimSpace(strings.ToLower(f))] = true
		}
		for _, sc := range scenarios {
			if want[sc.Family] {
				filtered = append(filtered, sc)
			}
		}
		scenarios = filtered
	}
	if len(scenarios) == 0 {
		fmt.Fprintln(os.Stderr, "evalbench: no scenarios selected")
		os.Exit(2)
	}

	// jsonResults collects every produced result keyed by figure name; with
	// -json the text tables printed below become one rendering and this
	// file the other, of the same data.
	jsonResults := map[string]any{}

	run := func(name string, f func() error) {
		start := time.Now()
		fmt.Printf("==== %s (size=%d, budget=%d steps/classifier) ====\n", name, *size, *timesteps)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "evalbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %s ----\n\n", name, time.Since(start).Round(time.Second))
	}

	want := strings.ToLower(*fig)
	all := want == "all"
	if all || want == "8" {
		run("Figure 8", func() error {
			res, err := bench.Figure8(scenarios, opts)
			if err != nil {
				return err
			}
			jsonResults["figure8"] = res
			res.Write(os.Stdout)
			return nil
		})
	}
	if all || want == "9" {
		run("Figure 9", func() error {
			res, err := bench.Figure9(scenarios, opts)
			if err != nil {
				return err
			}
			jsonResults["figure9"] = res
			res.Write(os.Stdout)
			return nil
		})
	}
	if all || want == "10" {
		run("Figure 10", func() error {
			res, err := bench.Figure10(scenarios, opts)
			if err != nil {
				return err
			}
			jsonResults["figure10"] = res
			res.Write(os.Stdout)
			return nil
		})
	}
	if all || want == "11" {
		run("Figure 11", func() error {
			res, err := bench.Figure11(scenarios, opts, nil)
			if err != nil {
				return err
			}
			jsonResults["figure11"] = res
			res.Write(os.Stdout)
			return nil
		})
	}
	if all || want == "5" {
		run("Figure 5", func() error {
			res, err := bench.Figure5(bench.Scenario{Family: "fw5", Size: *size, Seed: *seed}, opts)
			if err != nil {
				return err
			}
			jsonResults["figure5"] = res
			res.Write(os.Stdout)
			return nil
		})
	}
	if all || want == "6" {
		run("Figure 6", func() error {
			res, err := bench.Figure6(bench.Scenario{Family: "acl4", Size: *size, Seed: *seed}, opts, 4)
			if err != nil {
				return err
			}
			jsonResults["figure6"] = res
			res.Write(os.Stdout)
			return nil
		})
	}
	if all || want == "ablation" {
		run("Approach ablation (trees vs TSS)", func() error {
			res, err := bench.ApproachAblation(scenarios, opts)
			if err != nil {
				return err
			}
			jsonResults["ablation"] = res
			res.Write(os.Stdout)
			return nil
		})
	}
	if all || want == "traffic" {
		run("Traffic-aware objective ablation", func() error {
			res, err := bench.TrafficAblation(scenarios, opts, 2000)
			if err != nil {
				return err
			}
			jsonResults["traffic"] = res
			res.Write(os.Stdout)
			return nil
		})
	}

	if *jsonOut != "" {
		if len(jsonResults) == 0 {
			fmt.Fprintln(os.Stderr, "evalbench: -json set but no figure produced results")
			os.Exit(1)
		}
		data, err := json.MarshalIndent(jsonResults, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "evalbench: marshal json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "evalbench: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote JSON results to %s\n", *jsonOut)
	}
}
