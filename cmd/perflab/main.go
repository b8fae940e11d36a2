// Command perflab is the perf lab's CLI: it runs the scenario-matrix
// benchmarks of internal/perf, writes versioned JSON artifacts, and diffs
// runs against a baseline with regression thresholds. Both humans and the
// CI bench gate drive it.
//
//	perflab run                                # pinned CI grid -> BENCH_run.json
//	perflab run -families acl1,fw1 -sizes 1000 -backends linear,tss,hicuts \
//	            -skews uniform,zipf -churns readonly,churn -out BENCH_big.json -table
//	perflab run -split -dir artifacts          # one BENCH_<scenario>.json per cell
//	perflab baseline                           # refresh BENCH_baseline.json (pinned grid)
//	perflab compare -old BENCH_baseline.json -new BENCH_run.json
//
// compare exits 2 when a threshold is breached, so CI can gate on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"neurocuts/internal/admin"
	"neurocuts/internal/engine"
	"neurocuts/internal/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:], "BENCH_run.json")
	case "baseline":
		runCmd(os.Args[2:], "BENCH_baseline.json")
	case "compare":
		compareCmd(os.Args[2:])
	case "checkcompiled":
		checkCompiledCmd(os.Args[2:])
	case "checkupdates":
		checkUpdatesCmd(os.Args[2:])
	case "proto":
		protoCmd(os.Args[2:])
	case "dataplane":
		dataplaneCmd(os.Args[2:])
	case "checkcompiledbatch":
		checkCompiledBatchCmd(os.Args[2:])
	case "checktelemetry":
		checkTelemetryCmd(os.Args[2:])
	case "realtrace":
		realTraceCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "perflab: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  perflab run           [grid flags] [-out FILE] [-split -dir DIR] [-table]
  perflab baseline      [grid flags] [-out FILE]   (same as run; defaults to BENCH_baseline.json)
  perflab compare       -old FILE -new FILE [threshold flags]
  perflab checkcompiled [-in FILE]   assert compiled lookup p50 <= legacy p50 per pair
  perflab checkupdates  [-family F -size N -backend B -updates N -min-factor X]
                        assert the overlay update path beats rebuild-per-update by >= X
  perflab proto         [-family F -size N -backend B -packets N -batch N -min-factor X]
                        compare v1 text vs v2 binary server batch throughput
  perflab dataplane     [-family F -size N -backend B -cores N -submitters N -batch N -min-factor X]
                        compare direct-engine vs run-to-completion dataplane batch p99
  perflab checkcompiledbatch [-families F,F -size N -backends B,B -batches N -batch N -min-factor X]
                        assert LookupBatch p50 beats scalar lookup by >= X per backend and family
  perflab checktelemetry [-family F -size N -backend B -batches N -batch N -max-overhead-pct X]
                        assert full telemetry taxes batch p50 by <= X% with zero hot-path allocs
  perflab realtrace     [-families F,F -size N -backend B -packets N -batch N -min-fraction X]
                        replay a pcap-rendered trace through the ingestion layer and assert
                        decode+classify retains >= X of the direct classify throughput

run 'perflab run -h' or 'perflab compare -h' for flags.
The compiled-vs-legacy grid: perflab run -families acl1 -sizes 300 -skews uniform \
  -churns readonly -backends hicuts,hypercuts,efficuts,cutsplit -lookups compiled,legacy`)
}

// runCmd implements both `run` and `baseline` (they differ only in the
// default output path).
func runCmd(args []string, defaultOut string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	ciGrid := perf.CIGrid()
	ciCfg := perf.CIConfig()
	var (
		families = fs.String("families", strings.Join(ciGrid.Families, ","), "comma-separated ClassBench families")
		sizes    = fs.String("sizes", intsToCSV(ciGrid.Sizes), "comma-separated rule-set sizes")
		skews    = fs.String("skews", skewsCSV(ciGrid.Skews), "comma-separated traffic skews (uniform, zipf)")
		churns   = fs.String("churns", churnsCSV(ciGrid.Churns), "comma-separated update modes (readonly, churn, updateheavy)")
		backends = fs.String("backends", strings.Join(ciGrid.Backends, ","), "comma-separated engine backends")
		lookups  = fs.String("lookups", "", "optional serving axis for tree backends: compiled,legacy (empty = default compiled cells)")
		seed     = fs.Int64("seed", ciCfg.Seed, "random seed")
		ops      = fs.Int("ops", ciCfg.Ops, "measured lookups per cell")
		runs     = fs.Int("runs", ciCfg.Runs, "measurement passes per cell (best-of)")
		warmup   = fs.Int("warmup", ciCfg.Warmup, "unmeasured warmup lookups per cell")
		packets  = fs.Int("packets", ciCfg.Packets, "trace length per cell")
		flows    = fs.Int("flows", ciCfg.Flows, "zipf flow-population size")
		zipfSkew = fs.Float64("zipf-s", ciCfg.ZipfSkew, "zipf s parameter (>1)")
		batch    = fs.Int("batch", ciCfg.BatchSize, "throughput batch size")
		shards   = fs.Int("shards", ciCfg.Shards, "engine shard count (0 = GOMAXPROCS)")
		cache    = fs.Int("flow-cache", ciCfg.FlowCacheEntries, "flow cache entries (0 = disabled)")
		binth    = fs.Int("binth", 0, "leaf threshold for tree backends (0 = default)")
		out      = fs.String("out", defaultOut, "combined report output path")
		split    = fs.Bool("split", false, "also write one BENCH_<scenario>.json per cell")
		dir      = fs.String("dir", ".", "directory for -split artifacts")
		table    = fs.Bool("table", false, "also print the report as a text table")
		quiet    = fs.Bool("quiet", false, "suppress per-cell progress on stderr")
		adminAt  = fs.String("admin", "", "serve the HTTP admin plane (live /metrics for the cell under measurement, /debug/pprof/) on this address for the duration of the run")
	)
	fs.Parse(args)

	grid := perf.Grid{
		Families: splitCSV(*families),
		Sizes:    csvToInts(*sizes),
		Skews:    toSkews(splitCSV(*skews)),
		Churns:   toChurns(splitCSV(*churns)),
		Backends: splitCSV(*backends),
		Lookups:  toLookups(splitCSV(*lookups)),
	}
	cfg := perf.RunConfig{
		Seed: *seed, Ops: *ops, Runs: *runs, Warmup: *warmup, Packets: *packets,
		Flows: *flows, ZipfSkew: *zipfSkew,
		BatchSize: *batch, Shards: *shards, FlowCacheEntries: *cache, Binth: *binth,
	}
	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	if *adminAt != "" {
		// The admin plane follows the run: each cell re-points the single
		// engine source at the engine currently under measurement, so a
		// scrape (or a pprof profile) during a long grid shows live counters
		// for the cell in flight.
		adm := admin.New(admin.Options{})
		bound, err := adm.Listen(*adminAt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perflab: admin plane on http://%s (/metrics /debug/pprof/)\n", bound)
		cfg.OnEngine = func(cellName string, eng *engine.Engine) { adm.SetEngine(cellName, eng) }
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			adm.Shutdown(ctx)
		}()
	}
	rep, err := perf.Run(grid, cfg, progress)
	if err != nil {
		fatal(err)
	}
	if err := perf.WriteArtifact(*out, rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "perflab: wrote %s (%d cells)\n", *out, len(rep.Cells))
	if *split {
		if err := perf.WriteCellArtifacts(*dir, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perflab: wrote %d per-scenario artifacts under %s\n", len(rep.Cells), *dir)
	}
	if *table {
		perf.WriteTable(os.Stdout, rep)
	}
}

func compareCmd(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	th := perf.DefaultThresholds()
	var (
		oldPath    = fs.String("old", "BENCH_baseline.json", "baseline report")
		newPath    = fs.String("new", "BENCH_run.json", "candidate report")
		latPct     = fs.Float64("max-latency-pct", th.LatencyPct, "max allowed p50 increase, percent")
		tailPct    = fs.Float64("max-tail-pct", th.TailLatencyPct, "max allowed p99 increase, percent")
		tpPct      = fs.Float64("max-throughput-pct", th.ThroughputPct, "max allowed throughput decrease, percent")
		memPct     = fs.Float64("max-memory-pct", th.MemoryPct, "max allowed memory increase, percent")
		allocDelta = fs.Float64("max-allocs", th.AllocsDelta, "max allowed allocs/op increase, absolute")
		churnSlack = fs.Float64("churn-slack", th.ChurnSlackFactor, "timing-threshold multiplier for churn cells")
	)
	fs.Parse(args)

	old, err := perf.ReadArtifact(*oldPath)
	if err != nil {
		fatal(err)
	}
	cand, err := perf.ReadArtifact(*newPath)
	if err != nil {
		fatal(err)
	}
	cmp := perf.Compare(old, cand, perf.Thresholds{
		LatencyPct: *latPct, TailLatencyPct: *tailPct, ThroughputPct: *tpPct,
		MemoryPct: *memPct, AllocsDelta: *allocDelta, ChurnSlackFactor: *churnSlack,
	})
	cmp.Write(os.Stdout)
	if !cmp.OK() {
		fmt.Fprintf(os.Stderr, "perflab: %d regression(s), %d missing scenario(s)\n",
			len(cmp.Regressions()), len(cmp.MissingCells))
		os.Exit(2)
	}
}

// checkCompiledCmd asserts the compiled runtime's headline claim over a
// report produced with -lookups compiled,legacy: per scenario pair, the
// compiled lookup's p50 must not exceed the legacy pointer tree's. Latency
// measurement is noisy (especially on shared CI runners), so on violation
// the grid embedded in the report is re-measured up to -retries times — a
// genuine regression loses every attempt, one-sided scheduler noise does
// not. Exits 2 when violations persist (or the report has no pairs), so CI
// can gate on it.
func checkCompiledCmd(args []string) {
	fs := flag.NewFlagSet("checkcompiled", flag.ExitOnError)
	in := fs.String("in", "BENCH_compiled.json", "report produced with -lookups compiled,legacy")
	retries := fs.Int("retries", 2, "re-measure the report's grid up to this many times on violation")
	fs.Parse(args)

	rep, err := perf.ReadArtifact(*in)
	if err != nil {
		fatal(err)
	}
	var pairs []perf.CompiledComparison
	var violations []string
	for attempt := 0; ; attempt++ {
		pairs, violations = perf.CheckCompiledWins(rep)
		if len(violations) == 0 || len(pairs) == 0 || attempt >= *retries {
			break
		}
		fmt.Fprintf(os.Stderr, "perflab: attempt %d/%d had %d violation(s), re-measuring: %s\n",
			attempt+1, *retries+1, len(violations), strings.Join(violations, "; "))
		rep, err = perf.Run(rep.Grid, rep.Config, nil)
		if err != nil {
			fatal(err)
		}
	}
	for _, p := range pairs {
		verdict := "ok"
		if !p.Win {
			verdict = "REGRESSION"
		}
		fmt.Printf("%-45s compiled p50 %8.0fns  legacy p50 %8.0fns  %s\n",
			p.Name(), p.Compiled.Metrics.P50Nanos, p.Legacy.Metrics.P50Nanos, verdict)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "perflab: %d compiled-lookup violation(s):\n", len(violations))
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(2)
	}
}

// checkUpdatesCmd asserts the online-update subsystem's headline claim: a
// single-rule update through the delta overlay must beat rebuild-per-update
// by at least -min-factor at the median, on the same backend and rule set.
// The measurement is re-run up to -retries times on violation (same noise
// rationale as checkcompiled); persistent violations exit 2 so CI can gate.
func checkUpdatesCmd(args []string) {
	fs := flag.NewFlagSet("checkupdates", flag.ExitOnError)
	var (
		family    = fs.String("family", "acl1", "ClassBench family")
		size      = fs.Int("size", 2000, "rule-set size")
		backend   = fs.String("backend", "hicuts", "tree backend to measure")
		updates   = fs.Int("updates", 200, "measured updates per path")
		minFactor = fs.Float64("min-factor", 10, "required rebuild-p50 / overlay-p50 ratio")
		seed      = fs.Int64("seed", 1, "random seed")
		retries   = fs.Int("retries", 2, "re-measure up to this many times on violation")
	)
	fs.Parse(args)

	var res perf.UpdateSpeedup
	var violation string
	for attempt := 0; ; attempt++ {
		var err error
		res, err = perf.MeasureUpdateSpeedup(*family, *size, *backend, *updates, perf.RunConfig{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		violation = perf.CheckUpdateSpeedup(res, *minFactor)
		if violation == "" || attempt >= *retries {
			break
		}
		fmt.Fprintf(os.Stderr, "perflab: attempt %d/%d: %s — re-measuring\n", attempt+1, *retries+1, violation)
	}
	verdict := "ok"
	if violation != "" {
		verdict = "REGRESSION"
	}
	fmt.Printf("%s_%d_%s  overlay update p50 %8.0fns  rebuild update p50 %10.0fns  %6.1fx  %s\n",
		res.Family, res.Size, res.Backend, res.OverlayP50Nanos, res.RebuildP50Nanos, res.Factor, verdict)
	if violation != "" {
		fmt.Fprintln(os.Stderr, "perflab: "+violation)
		os.Exit(2)
	}
}

// protoCmd measures the same batched lookup workload through the v1 text
// protocol and the v2 binary protocol against one in-process server (the
// wire-protocol perf cell). With -min-factor > 0 it gates like the other
// check commands: the measurement is retried on violation, and persistent
// violations exit 2.
func protoCmd(args []string) {
	fs := flag.NewFlagSet("proto", flag.ExitOnError)
	var (
		family    = fs.String("family", "acl1", "ClassBench family")
		size      = fs.Int("size", 1000, "rule-set size")
		backend   = fs.String("backend", "hicuts", "backend to serve")
		packets   = fs.Int("packets", 50000, "trace length per measurement pass")
		batch     = fs.Int("batch", 1024, "packets per batch request")
		runs      = fs.Int("runs", 3, "measurement passes (best-of)")
		seed      = fs.Int64("seed", 1, "random seed")
		minFactor = fs.Float64("min-factor", 0, "required v2/v1 throughput ratio (0 = report only)")
		retries   = fs.Int("retries", 2, "re-measure up to this many times on violation")
		out       = fs.String("out", "", "also write the comparison as JSON to this path")
	)
	fs.Parse(args)

	var res perf.ProtoComparison
	var violation string
	for attempt := 0; ; attempt++ {
		var err error
		res, err = perf.MeasureProtoThroughput(*family, *size, *backend, *packets, *batch, *runs, perf.RunConfig{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		violation = perf.CheckProtoThroughput(res, *minFactor)
		if violation == "" || attempt >= *retries {
			break
		}
		fmt.Fprintf(os.Stderr, "perflab: attempt %d/%d: %s — re-measuring\n", attempt+1, *retries+1, violation)
	}
	verdict := "ok"
	if violation != "" {
		verdict = "REGRESSION"
	}
	fmt.Printf("%s_%d_%s  batch=%d  v1 %12.0f pps  v2 %12.0f pps  engine %12.0f pps  v2/v1 %5.2fx  %s\n",
		res.Family, res.Size, res.Backend, res.BatchSize,
		res.V1PacketsPerSec, res.V2PacketsPerSec, res.EnginePacketsPerSec, res.Factor, verdict)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perflab: wrote %s\n", *out)
	}
	if violation != "" {
		fmt.Fprintln(os.Stderr, "perflab: "+violation)
		os.Exit(2)
	}
}

// dataplaneCmd measures the same concurrent batched lookup workload served
// by the engine called directly and by the run-to-completion dataplane (the
// dataplane perf cell), gating on tail batch latency: PoolP99/DataplaneP99
// must reach -min-factor. Like the other check commands it re-measures on
// violation and exits 2 only when the violation persists.
func dataplaneCmd(args []string) {
	fs := flag.NewFlagSet("dataplane", flag.ExitOnError)
	var (
		family     = fs.String("family", "acl1", "ClassBench family")
		size       = fs.Int("size", 1000, "rule-set size")
		backend    = fs.String("backend", "hicuts", "backend to serve")
		cores      = fs.Int("cores", 0, "parallelism for both paths: pool shards and dataplane loops (0 = GOMAXPROCS)")
		submitters = fs.Int("submitters", 4, "concurrent batch-submitting goroutines")
		batches    = fs.Int("batches", 64, "measured batches per submitter per pass")
		batch      = fs.Int("batch", 512, "packets per batch")
		flowCache  = fs.Int("flow-cache", 16384, "flow-cache entry budget for both paths")
		runs       = fs.Int("runs", 3, "measurement passes (best-of)")
		seed       = fs.Int64("seed", 1, "random seed")
		minFactor  = fs.Float64("min-factor", 0, "required pool-p99 / dataplane-p99 ratio (0 = report only)")
		retries    = fs.Int("retries", 2, "re-measure up to this many times on violation")
		out        = fs.String("out", "", "also write the comparison as JSON to this path")
	)
	fs.Parse(args)

	var res perf.DataplaneComparison
	var violation string
	for attempt := 0; ; attempt++ {
		var err error
		res, err = perf.MeasureDataplane(*family, *size, *backend, *cores, *submitters, *batches, *batch, *flowCache, *runs, perf.RunConfig{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		violation = perf.CheckDataplane(res, *minFactor)
		if violation == "" || attempt >= *retries {
			break
		}
		fmt.Fprintf(os.Stderr, "perflab: attempt %d/%d: %s — re-measuring\n", attempt+1, *retries+1, violation)
	}
	verdict := "ok"
	if violation != "" {
		verdict = "REGRESSION"
	}
	fmt.Printf("%s_%d_%s  cores=%d sub=%d batch=%d  pool p99 %10.0fns  dataplane p99 %10.0fns  %5.2fx  (p50 %8.0fns vs %8.0fns, %8.0f vs %8.0f pps)  %s\n",
		res.Family, res.Size, res.Backend, res.Cores, res.Submitters, res.BatchSize,
		res.PoolP99Nanos, res.DataplaneP99Nanos, res.Factor,
		res.PoolP50Nanos, res.DataplaneP50Nanos,
		res.PoolPacketsPerSec, res.DataplanePacketsPerSec, verdict)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perflab: wrote %s\n", *out)
	}
	if violation != "" {
		fmt.Fprintln(os.Stderr, "perflab: "+violation)
		os.Exit(2)
	}
}

// checkCompiledBatchCmd runs the compiledbatch perf cell per backend and
// family: the same zipf + worst-case-depth trace through the compiled scalar
// lookup and the frontier-walk LookupBatch, gating on batch-vs-scalar p50
// (-min-factor; 1.0 asserts the batch path is at least as fast at the
// median). The default backends are one single-tree builder and one
// multi-root one, because the walk's cost profile differs between them. Like
// the other check commands it re-measures on violation and exits 2 only when
// the violation persists.
func checkCompiledBatchCmd(args []string) {
	fs := flag.NewFlagSet("checkcompiledbatch", flag.ExitOnError)
	var (
		families  = fs.String("families", "acl1,fw1,ipc1", "comma-separated ClassBench families")
		size      = fs.Int("size", 10000, "rule-set size")
		backends  = fs.String("backends", "hicuts,cutsplit", "comma-separated tree backends to compile (hicuts, hypercuts, efficuts, cutsplit)")
		batches   = fs.Int("batches", 96, "measured batches per pass")
		batch     = fs.Int("batch", 512, "packets per batch")
		runs      = fs.Int("runs", 3, "measurement passes per path (best-of)")
		seed      = fs.Int64("seed", 1, "random seed")
		minFactor = fs.Float64("min-factor", 0, "required scalar-p50 / batch-p50 ratio (0 = report only)")
		retries   = fs.Int("retries", 2, "re-measure up to this many times on violation")
		out       = fs.String("out", "", "also write the comparisons as a JSON array to this path")
	)
	fs.Parse(args)

	var results []perf.CompiledBatchComparison
	var failures []string
	for _, backend := range splitCSV(*backends) {
		for _, fam := range splitCSV(*families) {
			var res perf.CompiledBatchComparison
			var violation string
			for attempt := 0; ; attempt++ {
				var err error
				res, err = perf.MeasureCompiledBatch(fam, *size, backend, *batches, *batch, *runs, perf.RunConfig{Seed: *seed})
				if err != nil {
					fatal(err)
				}
				violation = perf.CheckCompiledBatch(res, *minFactor)
				if violation == "" || attempt >= *retries {
					break
				}
				fmt.Fprintf(os.Stderr, "perflab: attempt %d/%d: %s — re-measuring\n", attempt+1, *retries+1, violation)
			}
			verdict := "ok"
			if violation != "" {
				verdict = "REGRESSION"
				failures = append(failures, violation)
			}
			fmt.Printf("%s_%d_%s  G=%d batch=%d  scalar p50 %9.0fns  batch p50 %9.0fns  %5.2fx  (p99 %9.0fns vs %9.0fns, %9.0f vs %9.0f pps)  %s\n",
				res.Family, res.Size, res.Backend, res.Group, res.BatchSize,
				res.ScalarP50Nanos, res.BatchP50Nanos, res.Factor,
				res.ScalarP99Nanos, res.BatchP99Nanos,
				res.ScalarPacketsPerSec, res.BatchPacketsPerSec, verdict)
			results = append(results, res)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perflab: wrote %s\n", *out)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "perflab: "+f)
		}
		os.Exit(2)
	}
}

// checkTelemetryCmd runs the telemetry-overhead perf cell: the same batch
// workload through a bare engine and one with the full telemetry stack armed
// (histograms on every span, flight recorder at threshold 0), gating on the
// relative batch-p50 cost (-max-overhead-pct) and a zero steady-state
// allocation delta. Like the other check commands it re-measures on
// violation and exits 2 only when the violation persists.
func checkTelemetryCmd(args []string) {
	fs := flag.NewFlagSet("checktelemetry", flag.ExitOnError)
	var (
		family     = fs.String("family", "acl1", "ClassBench family")
		size       = fs.Int("size", 10000, "rule-set size")
		backend    = fs.String("backend", "hicuts", "engine backend")
		batches    = fs.Int("batches", 96, "measured batches per pass")
		batch      = fs.Int("batch", 512, "packets per batch")
		runs       = fs.Int("runs", 3, "measurement passes per configuration (best-of)")
		seed       = fs.Int64("seed", 1, "random seed")
		maxOverPct = fs.Float64("max-overhead-pct", 5, "max allowed telemetry batch-p50 overhead in percent (0 = report only)")
		retries    = fs.Int("retries", 2, "re-measure up to this many times on violation")
		out        = fs.String("out", "BENCH_telemetry.json", "write the comparison as JSON to this path ('' = skip)")
	)
	fs.Parse(args)

	var res perf.TelemetryOverhead
	var violation string
	for attempt := 0; ; attempt++ {
		var err error
		res, err = perf.MeasureTelemetryOverhead(*family, *size, *backend, *batches, *batch, *runs, perf.RunConfig{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		violation = perf.CheckTelemetry(res, *maxOverPct)
		if violation == "" || attempt >= *retries {
			break
		}
		fmt.Fprintf(os.Stderr, "perflab: attempt %d/%d: %s — re-measuring\n", attempt+1, *retries+1, violation)
	}
	verdict := "ok"
	if violation != "" {
		verdict = "REGRESSION"
	}
	fmt.Printf("%s_%d_%s batch=%d  off p50 %9.0fns  armed p50 %9.0fns  %+5.1f%%  allocs/batch %.2f vs %.2f (delta %+.2f)  samples=%d slow=%d  %s\n",
		res.Family, res.Size, res.Backend, res.BatchSize,
		res.OffP50Nanos, res.OnP50Nanos, res.OverheadPct,
		res.OnAllocsPerBatch, res.OffAllocsPerBatch, res.AllocsDelta,
		res.HistogramSamples, res.SlowCaptured, verdict)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perflab: wrote %s\n", *out)
	}
	if violation != "" {
		fmt.Fprintln(os.Stderr, "perflab: "+violation)
		os.Exit(2)
	}
}

func realTraceCmd(args []string) {
	fs := flag.NewFlagSet("realtrace", flag.ExitOnError)
	var (
		families    = fs.String("families", "acl1,fw1,ipc1", "comma-separated ClassBench families")
		size        = fs.Int("size", 1000, "rule-set size")
		backend     = fs.String("backend", "hicuts", "engine backend")
		packets     = fs.Int("packets", 50000, "trace length rendered into the pcap")
		batch       = fs.Int("batch", 512, "packets per ReadBatch/ClassifyBatch span")
		runs        = fs.Int("runs", 3, "measurement passes per path (best-of)")
		seed        = fs.Int64("seed", 1, "random seed")
		minFraction = fs.Float64("min-fraction", 0.25, "min replay/direct throughput fraction (0 = report only)")
		retries     = fs.Int("retries", 2, "re-measure up to this many times on violation")
		out         = fs.String("out", "BENCH_realtrace.json", "write the results as JSON to this path ('' = skip)")
	)
	fs.Parse(args)

	var results []perf.RealTraceResult
	var failures []string
	for _, fam := range splitCSV(*families) {
		var res perf.RealTraceResult
		var violation string
		for attempt := 0; ; attempt++ {
			var err error
			res, err = perf.MeasureRealTrace(fam, *size, *backend, *packets, *batch, *runs, perf.RunConfig{Seed: *seed})
			if err != nil {
				fatal(err)
			}
			violation = perf.CheckRealTrace(res, *minFraction)
			if violation == "" || attempt >= *retries {
				break
			}
			fmt.Fprintf(os.Stderr, "perflab: attempt %d/%d: %s — re-measuring\n", attempt+1, *retries+1, violation)
		}
		verdict := "ok"
		if violation != "" {
			verdict = "REGRESSION"
			failures = append(failures, violation)
		}
		fmt.Printf("%s_%d_%s pcap %5.1fMB  direct %9.0f pps  decode %9.0f pps  replay %9.0f pps (%.2fx)  shm %9.0f pps  matches=%d  %s\n",
			res.Family, res.Size, res.Backend, float64(res.PcapBytes)/(1<<20),
			res.DirectPacketsPerSec, res.DecodePacketsPerSec,
			res.ReplayPacketsPerSec, res.ReplayFraction, res.ShmPacketsPerSec,
			res.Matches, verdict)
		results = append(results, res)
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perflab: wrote %s\n", *out)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "perflab: "+f)
		}
		os.Exit(2)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perflab:", err)
	os.Exit(1)
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(strings.ToLower(part)); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func csvToInts(s string) []int {
	var out []int
	for _, part := range splitCSV(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("invalid size %q", part))
		}
		out = append(out, n)
	}
	return out
}

func intsToCSV(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func skewsCSV(ss []perf.Skew) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = string(s)
	}
	return strings.Join(parts, ",")
}

func churnsCSV(cs []perf.Churn) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = string(c)
	}
	return strings.Join(parts, ",")
}

func toSkews(ss []string) []perf.Skew {
	out := make([]perf.Skew, len(ss))
	for i, s := range ss {
		out[i] = perf.Skew(s)
	}
	return out
}

func toChurns(ss []string) []perf.Churn {
	out := make([]perf.Churn, len(ss))
	for i, s := range ss {
		out[i] = perf.Churn(s)
	}
	return out
}

func toLookups(ss []string) []perf.LookupMode {
	out := make([]perf.LookupMode, len(ss))
	for i, s := range ss {
		out[i] = perf.LookupMode(s)
	}
	return out
}
