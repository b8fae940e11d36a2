// Command e2e is the repository's benchmark: seven named workloads driven
// through the real stack (iface, server, dataplane, engine, updater, tss,
// compiled) from one process, every answer checked against linear search,
// every layer timed from outside. BENCHMARK.json at the repo root names it
// for the driver; benchmarks/README.md explains the metrics.
//
//	go run ./benchmarks/e2e                        # the suite: tables, BENCH_e2e.json, traces
//	go run ./benchmarks/e2e -selfcheck             # the suite twice, compared against the bounds
//	go run ./benchmarks/e2e --workload tree_cold --seed 3 --seconds 10 --trace 0
//
// The last form is the driver's: one workload, one JSON object on the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	workload  string // driver mode: exactly this workload, contract output
	workloads string // suite mode: comma-separated subset
	seed      int64
	seconds   float64
	trace     bool
	out       string
	smoke     bool
	selfcheck bool
	// tmpRoot holds the journals and the shm ring file of a run. It lies
	// under the working directory because the driver's checkout is the only
	// place the benchmark may write; tests point it at their own.
	tmpRoot string
}

func main() {
	o := options{tmpRoot: ".bench_build"}
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's JSON result line")
	flag.StringVar(&o.workloads, "workloads", "", "suite mode: comma-separated workloads to run (default all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the traffic and the update stream (tables are fixed)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time per workload, split into ten windows")
	// Not a bool flag: the driver passes "--trace 0" as two arguments.
	o.trace = true
	flag.Func("trace", "1 adds the traced per-layer phase; 0 measures end to end only (default 1)", func(s string) error {
		v, err := strconv.ParseBool(s)
		o.trace = v
		return err
	})
	flag.StringVar(&o.out, "out", "benchmarks/results", "suite mode: directory for BENCH_e2e.json and trace_<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "1 window x 0.2 s on 1000-rule tables: a functional check, not a measurement")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice and fail if any bounded metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	code, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

// run executes the mode the options select and returns the exit code: 1 when
// any operation failed or any answer was wrong, after everything is printed.
func run(o options, stdout io.Writer) (int, error) {
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp(o.tmpRoot, "e2e-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	if o.workload != "" {
		return runDriver(o, sc, tmp, stdout)
	}
	return runSuite(o, sc, tmp, stdout)
}

// measured is a metric value as the driver reads it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver is the driver's contract: one workload, and as the last line of
// standard output one JSON object with the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1).
func runDriver(o options, sc scale, tmp string, stdout io.Writer) (int, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, sc, o.seed, planFor(w, o.seconds, o.smoke, o.trace), tmp)
	if err != nil {
		return 0, err
	}
	defs, vals := gated, res.EndToEnd
	if o.trace {
		defs, vals = perLayerDefs(), res.PerLayer
	}
	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]measured{}}
	for _, d := range defs {
		line.Metrics[d.Name] = measured{vals[d.Name], d.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return 0, err
	}
	if res.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// provenance says what produced a result file.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	TableSeed  int64   `json:"table_seed"`
	Smoke      bool    `json:"smoke"`
	Seconds    float64 `json:"seconds_per_workload"`
	WindowPlan string  `json:"window_plan"`
	Batch      int     `json:"batch"`
	Transport  string  `json:"transport"`
	Unmeasured string  `json:"not_measured"`
}

func newProvenance(o options) provenance {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return provenance{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GitCommit: commit, Seed: o.seed, TableSeed: tableSeed, Smoke: o.smoke, Seconds: o.seconds,
		WindowPlan: "set-up (median of repeats), warm-up of a tenth of the measuring time, then 100 windows (paper_grid: 5 per cell, its 12 cells sharing the time); pps and batch_p50_us are the window a twentieth in from the best (update_churn: a quarter in), batch_p99_us is over every call",
		Batch:      batch,
		Transport:  "wire_v2 crossed the host loopback interface (127.0.0.1), no real link; wire_shm is a file-backed mmap ring inside one process",
		Unmeasured: "link rate, NIC and wire latency, disk fsync (journal runs with JournalNoSync)",
	}
}

// suiteFile is benchmarks/results/BENCH_e2e.json.
type suiteFile struct {
	Schema     string      `json:"schema"`
	Provenance provenance  `json:"provenance"`
	EndToEnd   []metricDef `json:"end_to_end_metrics"`
	Ungated    []metricDef `json:"end_to_end_metrics_not_gated"`
	PerLayer   []metricDef `json:"per_layer_metrics"`
	Workloads  []*result   `json:"workloads"`
}

func selectWorkloads(csv string) ([]*workload, error) {
	if csv == "" {
		all := make([]*workload, len(workloads))
		for i := range workloads {
			all[i] = &workloads[i]
		}
		return all, nil
	}
	var sel []*workload
	for _, name := range strings.Split(csv, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		sel = append(sel, w)
	}
	return sel, nil
}

// runSuite runs the selected workloads one after another, prints every
// metric by name and unit, and writes the result and trace files.
func runSuite(o options, sc scale, tmp string, stdout io.Writer) (int, error) {
	sel, err := selectWorkloads(o.workloads)
	if err != nil {
		return 0, err
	}
	pass := func() ([]*result, error) {
		var rs []*result
		for _, w := range sel {
			res, err := runWorkload(w, sc, o.seed, planFor(w, o.seconds, o.smoke, o.trace), tmp)
			if err != nil {
				return nil, err
			}
			printResult(stdout, res, o.trace)
			rs = append(rs, res)
		}
		return rs, nil
	}
	results, err := pass()
	if err != nil {
		return 0, err
	}
	code := 0
	if o.selfcheck {
		fmt.Fprintln(stdout, "\n== selfcheck: second pass ==")
		again, err := pass()
		if err != nil {
			return 0, err
		}
		if !compareRuns(stdout, results, again) {
			code = 1
		}
		results = append(results, again...)
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 0, err
	}
	prov := newProvenance(o)
	file := suiteFile{Schema: "bench-e2e/1", Provenance: prov, EndToEnd: gated, Ungated: ungated,
		PerLayer: layerMetrics, Workloads: results[:len(sel)]}
	if err := writeJSON(filepath.Join(o.out, "BENCH_e2e.json"), file); err != nil {
		return 0, err
	}
	for _, res := range results[:len(sel)] {
		if len(res.spans) == 0 {
			continue
		}
		tf := struct {
			Workload   string     `json:"workload"`
			Provenance provenance `json:"provenance"`
			Spans      []span     `json:"spans"`
		}{res.Name, prov, res.spans}
		if err := writeJSON(filepath.Join(o.out, "trace_"+res.Name+".json"), tf); err != nil {
			return 0, err
		}
	}
	for _, res := range results {
		if res.Failed > 0 {
			fmt.Fprintf(stdout, "FAILED: %s: %d of %d operations failed or answered wrong\n", res.Name, res.Failed, res.Attempted)
			code = 1
		}
	}
	return code, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printResult(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", res.Name, res.Why)
	fmt.Fprintf(w, "windows: %d x %.3fs; attempted %d, failed %d", res.Windows, res.WindowS, res.Attempted, res.Failed)
	if res.Updates > 0 {
		fmt.Fprintf(w, "; %d updates (%d beyond p99)", res.Updates, samplesBeyond(res.Updates, 0.99))
	}
	fmt.Fprintln(w)
	for _, c := range res.Cells {
		fmt.Fprintf(w, "  cell %-5s %-9s rules=%d setup=%.3fs pps=%.0f p50=%.1fus p99=%.1fus worst_visits=%d bytes_per_rule=%.1f; %d batches (%d beyond p99), >=%d per window\n",
			c.Family, c.Backend, c.Rules, c.SetupS, c.PPS, c.BatchP50Us, c.BatchP99Us, c.WorstVisits, c.BytesPerRule,
			c.Batches, samplesBeyond(c.Batches, 0.99), c.MinBatches)
	}
	fmt.Fprintln(w, " end to end:")
	for _, d := range gated {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
	}
	for _, d := range ungated {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
	}
	if !traced {
		return
	}
	fmt.Fprintln(w, " per layer:")
	for _, d := range layerMetrics {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
	}
}

// compareRuns prints, per bounded metric and workload, how far the two passes
// differ against the metric's bound, and reports whether every pair stayed
// inside it.
func compareRuns(w io.Writer, first, second []*result) bool {
	ok := true
	fmt.Fprintf(w, "\n%-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	for i, a := range first {
		b := second[i]
		for _, d := range gated {
			// Either pass may be the slow one; the bound holds both ways.
			x, y := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			worse := math.Abs(x-y) / math.Abs(x)
			verdict := ""
			if worse > d.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", a.Name, d.Name,
				x, y, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}
