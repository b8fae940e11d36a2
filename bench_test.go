// Package neurocuts holds the repository-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation section
// (BenchmarkFigure5 … BenchmarkFigure11, BenchmarkTable1), plus
// micro-benchmarks for the individual building blocks (tree construction per
// algorithm, lookup throughput, policy inference).
//
// The figure benchmarks run the same harness code as cmd/evalbench but at a
// reduced scale so `go test -bench=.` finishes in minutes; pass larger
// scales through cmd/evalbench for full reproductions.
//
// The BenchmarkGate* functions at the end are CI's perf gates: the three
// ratios no benchmarks/e2e workload records, failed past a bound.
package neurocuts

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"neurocuts/internal/bench"
	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/core"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/engine"
	"neurocuts/internal/env"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/hypercuts"
	"neurocuts/internal/iface"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
	"neurocuts/internal/tcam"
	"neurocuts/internal/telemetry"
	"neurocuts/internal/tree"
	"neurocuts/internal/tss"
)

// benchOptions is the scale used by the figure benchmarks.
func benchOptions() bench.Options {
	return bench.Options{
		Size:           200,
		Seed:           1,
		TrainTimesteps: 800,
		BatchTimesteps: 400,
		Workers:        2,
		Binth:          16,
	}
}

// benchScenarios covers one classifier per ClassBench category.
func benchScenarios() []bench.Scenario {
	return []bench.Scenario{
		{Family: "acl1", Size: 200, Seed: 1},
		{Family: "fw1", Size: 200, Seed: 1},
		{Family: "ipc1", Size: 200, Seed: 1},
	}
}

// benchSet generates the classifier used by the micro-benchmarks.
func benchSet(b *testing.B, family string, size int) *rule.Set {
	b.Helper()
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		b.Fatal(err)
	}
	return classbench.Generate(fam, size, 1)
}

// BenchmarkFigure8 regenerates Figure 8 (classification time across
// classifiers for HiCuts, HyperCuts, EffiCuts, CutSplit and NeuroCuts).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure8(benchScenarios(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// BenchmarkFigure9 regenerates Figure 9 (memory footprint, bytes per rule).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure9(benchScenarios(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// BenchmarkFigure10 regenerates Figure 10 (NeuroCuts with the EffiCuts
// partition vs EffiCuts, sorted improvements).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure10(benchScenarios(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// BenchmarkFigure11 regenerates Figure 11 (time-space coefficient sweep).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure11(benchScenarios()[:1], benchOptions(), []float64{0, 0.5, 1})
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// BenchmarkFigure5 regenerates Figure 5 (tree shape while learning fw5).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure5(bench.Scenario{Family: "fw5", Size: 200, Seed: 1}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// BenchmarkFigure6 regenerates Figure 6 (tree variations sampled from one
// stochastic policy on acl4).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure6(bench.Scenario{Family: "acl4", Size: 200, Seed: 1}, benchOptions(), 4)
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// BenchmarkTable1 renders the hyperparameter table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
}

// BenchmarkApproachAblation runs the decision-tree vs TSS vs TCAM ablation.
func BenchmarkApproachAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.ApproachAblation(benchScenarios(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// BenchmarkTrafficAblation runs the worst-case vs traffic-aware NeuroCuts
// objective ablation.
func BenchmarkTrafficAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.TrafficAblation(benchScenarios()[:1], benchOptions(), 1000)
		if err != nil {
			b.Fatal(err)
		}
		res.Write(io.Discard)
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: per-algorithm tree construction.
// ---------------------------------------------------------------------------

// buildBench runs one tree build per iteration over a 1k table (the family
// the cell has always used) and over acl1 at 10k rules, the table tree_cold,
// update_churn and paper_grid build.
func buildBench(b *testing.B, family string, build func(*rule.Set) error) {
	for _, cell := range []struct {
		family string
		size   int
	}{{family, 1000}, {"acl1", 10_000}} {
		b.Run(fmt.Sprintf("%s_%d", cell.family, cell.size), func(b *testing.B) {
			set := benchSet(b, cell.family, cell.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := build(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHiCutsBuild(b *testing.B) {
	buildBench(b, "acl1", func(set *rule.Set) error {
		_, err := hicuts.Build(set, hicuts.DefaultConfig())
		return err
	})
}

func BenchmarkHyperCutsBuild(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hypercuts.Build(set, hypercuts.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEffiCutsBuild(b *testing.B) {
	buildBench(b, "fw1", func(set *rule.Set) error {
		_, err := efficuts.Build(set, efficuts.DefaultConfig())
		return err
	})
}

func BenchmarkCutSplitBuild(b *testing.B) {
	buildBench(b, "fw1", func(set *rule.Set) error {
		_, err := cutsplit.Build(set, cutsplit.DefaultConfig())
		return err
	})
}

func BenchmarkTSSBuild(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tss.Build(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCAMBuild(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tcam.Build(set, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupTSS(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	trace := classbench.GenerateTrace(set, 4096, 2)
	c, err := tss.Build(set)
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, c.Classify, trace)
}

// BenchmarkEnvRollout measures the NeuroCuts environment alone: one 500-step
// rollout of a uniformly random policy over acl1 at 10k rules (the
// paper_grid cell; the rollout is truncated, as the trained ones are), with
// no network in the loop. steps/s is the ceiling on trainer throughput.
func BenchmarkEnvRollout(b *testing.B) {
	set := benchSet(b, "acl1", 10_000)
	e := env.New(set, env.Config{MaxStepsPerRollout: 500})
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		e.Reset()
		for !e.Done() {
			dim := rule.Dimension(rng.Intn(rule.NumDims))
			if err := e.Step(dim, rng.Intn(env.NumCutActions), env.Experience{}); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := e.FinishRollout(); err != nil {
			b.Fatal(err)
		}
		steps += e.Steps()
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkNeuroCutsTrainingIteration measures one small training run
// (collection plus PPO update) end to end.
func BenchmarkNeuroCutsTrainingIteration(b *testing.B) {
	set := benchSet(b, "acl1", 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Scaled(1000)
		cfg.MaxTimesteps = 400
		cfg.BatchTimesteps = 400
		cfg.MaxIterations = 1
		cfg.Workers = 2
		cfg.Seed = int64(i + 1)
		trainer := core.NewTrainer(set, cfg)
		if _, err := trainer.Train(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: lookup throughput (packets/op) per algorithm.
// ---------------------------------------------------------------------------

func lookupBench(b *testing.B, classify func(rule.Packet) (rule.Rule, bool), trace []packet.TraceEntry) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := trace[i%len(trace)]
		if _, ok := classify(e.Key); !ok {
			b.Fatal("lookup missed")
		}
	}
}

// compiledLookup compiles trees over set into the form that serves them and
// returns its lookup.
func compiledLookup(b *testing.B, set *rule.Set, trees ...*tree.Tree) func(rule.Packet) (rule.Rule, bool) {
	b.Helper()
	c, err := compiled.Compile(set, trees...)
	if err != nil {
		b.Fatal(err)
	}
	return c.Lookup
}

func BenchmarkLookupLinear(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	trace := classbench.GenerateTrace(set, 4096, 2)
	lookupBench(b, set.Match, trace)
}

func BenchmarkLookupHiCuts(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	trace := classbench.GenerateTrace(set, 4096, 2)
	t, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, compiledLookup(b, set, t), trace)
}

func BenchmarkLookupEffiCuts(b *testing.B) {
	set := benchSet(b, "fw1", 1000)
	trace := classbench.GenerateTrace(set, 4096, 2)
	c, err := efficuts.Build(set, efficuts.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, compiledLookup(b, set, c.Trees...), trace)
}

func BenchmarkLookupCutSplit(b *testing.B) {
	set := benchSet(b, "fw1", 1000)
	trace := classbench.GenerateTrace(set, 4096, 2)
	c, err := cutsplit.Build(set, cutsplit.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, compiledLookup(b, set, c.Trees...), trace)
}

func BenchmarkLookupNeuroCuts(b *testing.B) {
	set := benchSet(b, "acl1", 500)
	trace := classbench.GenerateTrace(set, 4096, 2)
	cfg := core.Scaled(1000)
	cfg.MaxTimesteps = 1500
	cfg.BatchTimesteps = 500
	cfg.Workers = 2
	trainer := core.NewTrainer(set, cfg)
	if _, err := trainer.Train(); err != nil {
		b.Fatal(err)
	}
	best, _ := trainer.BestTree()
	lookupBench(b, compiledLookup(b, set, best), trace)
}

// ---------------------------------------------------------------------------
// Engine benchmarks: batch lookup and parallel single-packet lookup
// through the unified classification engine.
// ---------------------------------------------------------------------------

// engineBenchSetup builds a HiCuts engine and a packet trace for the engine
// benchmarks.
func engineBenchSetup(b *testing.B) (*engine.Engine, []rule.Packet) {
	b.Helper()
	set := benchSet(b, "acl1", 1000)
	eng, err := engine.NewEngine("hicuts", set, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	trace := classbench.GenerateTrace(set, 8192, 2)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}
	return eng, keys
}

// BenchmarkEngineBatch sweeps batch size; batch=1 is the single-packet loop
// baseline, and larger batches amortise the snapshot load and reach the
// compiled frontier walk (the per-packet metric is comparable across rows).
func BenchmarkEngineBatch(b *testing.B) {
	for _, batch := range []int{1, 64, 512, 4096} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			eng, keys := engineBenchSetup(b)
			ps := make([]rule.Packet, batch)
			for i := range ps {
				ps[i] = keys[i%len(keys)]
			}
			out := make([]engine.Result, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ClassifyBatch(ps, out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/packet")
		})
	}
}

// BenchmarkEngineFlowCache measures the flow cache on Zipf-skewed traffic
// against the uncached engine on the same trace. The skewed rows should
// show the cache collapsing lookup cost toward a hash + set probe; the
// uniform rows show its overhead when traffic has no locality. The batch
// row is the flow_zipf shape: 256-packet calls, which probe the cache for
// the whole batch and classify the few misses on the caller.
func BenchmarkEngineFlowCache(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	for _, tc := range []struct {
		name   string
		cache  int
		skewed bool
		batch  int
	}{
		{"zipf/uncached", 0, true, 1},
		{"zipf/cached", 4096, true, 1},
		{"uniform/uncached", 0, false, 1},
		{"uniform/cached", 4096, false, 1},
		{"zipf/cached/batch=256", 4096, true, 256},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng, err := engine.NewEngine("hicuts", set,
				engine.Options{FlowCacheEntries: tc.cache})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			var keys []rule.Packet
			if tc.skewed {
				for _, e := range classbench.ZipfTrace(set, 8192, 256, 1.2, 2) {
					keys = append(keys, e.Key)
				}
			} else {
				for _, e := range classbench.UniformTrace(set, 8192, 2) {
					keys = append(keys, e.Key)
				}
			}
			out := make([]engine.Result, tc.batch)
			b.ReportAllocs()
			b.ResetTimer()
			if tc.batch == 1 {
				for i := 0; i < b.N; i++ {
					eng.Classify(keys[i%len(keys)])
				}
				return
			}
			for i := 0; i < b.N; i++ {
				lo := i * tc.batch % len(keys)
				eng.ClassifyBatch(keys[lo:lo+tc.batch], out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.batch), "ns/packet")
		})
	}
}

// BenchmarkFlowCacheHit measures the cache alone: one probe that hits, as
// Get and as one packet's share of a 256-packet GetBatch. 16 384 entries are
// the benchmark's flow_zipf size (512 KB of sets).
func BenchmarkFlowCacheHit(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	var keys []rule.Packet
	for _, e := range classbench.ZipfTrace(set, 8192, 2048, 1.1, 2) {
		keys = append(keys, e.Key)
	}
	c := engine.NewFlowCache(16384)
	for i, k := range keys {
		if _, hit, h := c.Get(k, 1); !hit {
			c.Put(h, k, 1, int32(i))
		}
	}
	b.Run("get", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if _, hit, _ := c.Get(keys[i%len(keys)], 1); hit {
				hits++
			}
		}
		if hits == 0 {
			b.Fatal("no probe hit")
		}
	})
	b.Run("batch=256", func(b *testing.B) {
		idx, hs := make([]int32, 256), make([]uint64, 256)
		for i := 0; i < b.N; i++ {
			lo := i * 256 % len(keys)
			c.GetBatch(keys[lo:lo+256], 1, idx, hs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/packet")
	})
}

// BenchmarkEngineParallel measures single-packet lookup under concurrent
// callers (the serving pattern of classifyd: one goroutine per connection,
// all reading the same atomic snapshot).
func BenchmarkEngineParallel(b *testing.B) {
	eng, keys := engineBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := eng.Classify(keys[i%len(keys)]); !ok {
				// b.Fatal is not allowed off the benchmark goroutine.
				b.Error("lookup missed")
				return
			}
			i++
		}
	})
}

// BenchmarkPolicyInference measures one forward pass of the NeuroCuts policy
// network at the paper's full 512x512 size.
func BenchmarkPolicyInference(b *testing.B) {
	set := benchSet(b, "acl1", 200)
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	trainer := core.NewTrainer(set, cfg)
	e := env.New(set, env.Config{})
	obs := e.Observation(e.Current())
	policy := trainer.Policy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = policy.Forward(obs)
	}
}

// BenchmarkWireDecodeAndClassify measures the full datapath: decode a raw
// IPv4/TCP header and classify the resulting key with a compiled HiCuts tree.
func BenchmarkWireDecodeAndClassify(b *testing.B) {
	set := benchSet(b, "acl1", 1000)
	t, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	classify := compiledLookup(b, set, t)
	trace := classbench.GenerateTrace(set, 1024, 3)
	wires := make([][]byte, len(trace))
	for i, e := range trace {
		key := e.Key
		if key.Proto != packet.ProtoTCP && key.Proto != packet.ProtoUDP {
			key.Proto = packet.ProtoTCP
		}
		w, err := packet.Serialize(key)
		if err != nil {
			b.Fatal(err)
		}
		wires[i] = w
	}
	var key rule.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := packet.DecodeInto(wires[i%len(wires)], &key); err != nil {
			b.Fatal(err)
		}
		if _, ok := classify(key); !ok {
			b.Fatal("lookup missed")
		}
	}
}

// BenchmarkClassBenchGenerate measures classifier generation at 10k scale.
func BenchmarkClassBenchGenerate(b *testing.B) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set := classbench.Generate(fam, 10_000, int64(i))
		if set.Len() < 5000 {
			b.Fatal("generation collapsed")
		}
	}
}

// BenchmarkTreeBuilderRandom measures raw tree-engine throughput: random
// cuts over a 1k classifier until completion.
func BenchmarkTreeBuilderRandom(b *testing.B) {
	set := benchSet(b, "ipc1", 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := tree.NewBuilder(set, 16)
		dims := rule.Dimensions()
		step := 0
		for !builder.Done() && step < 5000 {
			d := dims[step%len(dims)]
			if err := builder.ApplyCut(d, 8); err != nil {
				builder.Skip()
			}
			step++
		}
	}
}

// ---------------------------------------------------------------------------
// Gates. Benchmarks rather than tests, so `go test ./...` never compares two
// wall clocks; CI runs `go test -run '^$' -bench '^BenchmarkGate'
// -benchtime=1x .`. A ratio of two wall clocks on a shared runner is noisy, so
// each is re-measured up to gateAttempts times before it fails.
// ---------------------------------------------------------------------------

const gateAttempts = 3

// gate reports the first measurement that passes as the metric unit and
// fails the benchmark when gateAttempts measurements in a row do not.
func gate(b *testing.B, unit string, pass func(float64) bool, measure func() float64) {
	for i := 0; i < b.N; i++ {
		v := measure()
		for attempt := 1; !pass(v); attempt++ {
			if attempt == gateAttempts {
				b.Fatalf("%s = %.3f on attempt %d of %d", unit, v, attempt, gateAttempts)
			}
			v = measure()
		}
		b.ReportMetric(v, unit)
	}
}

func gateEngine(b *testing.B, family string, size int, opts engine.Options) (*rule.Set, *engine.Engine) {
	set := benchSet(b, family, size)
	eng, err := engine.NewEngine("hicuts", set, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return set, eng
}

// p50 sorts lat in place.
func p50(lat []int64) float64 {
	slices.Sort(lat)
	return float64(lat[len(lat)/2])
}

// BenchmarkGateOverlayVsRebuild: on a 2k-rule acl1 HiCuts table a single-rule
// update through the delta overlay (compaction off, so only the write path is
// timed) must be at least 10x faster at the median than building an engine
// over the edited list, which is what a compaction does.
func BenchmarkGateOverlayVsRebuild(b *testing.B) {
	opts := engine.Options{Seed: 1, CompactThreshold: -1}
	// updateP50 times alternating inserts and deletes at rotating positions.
	updateP50 := func(set *rule.Set, insert func(pos int, r rule.Rule), remove func(pos int)) float64 {
		lat := make([]int64, 0, 202)
		for len(lat) < cap(lat) {
			pos := len(lat) * 37 % (set.Len() + 1)
			t0 := time.Now()
			insert(pos, set.Rule(0))
			t1 := time.Now()
			remove(pos)
			lat = append(lat, t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds())
		}
		return p50(lat[2:]) // the first pair warms the write path
	}
	check := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	gate(b, "rebuild/overlay", func(x float64) bool { return x >= 10 }, func() float64 {
		set, eng := gateEngine(b, "acl1", 2000, opts)
		var id int
		overlay := updateP50(set, func(pos int, r rule.Rule) {
			res, err := eng.Insert(pos, r)
			check(err)
			id = res.ID
		}, func(int) {
			_, err := eng.Delete(id)
			check(err)
		})
		list := eng.Rules()
		rebuild := func(next *rule.Set) {
			list = next
			built, err := engine.NewEngine("hicuts", list, opts)
			check(err)
			built.Close()
		}
		return updateP50(set, func(pos int, r rule.Rule) { rebuild(cloneInsert(list, pos, r)) },
			func(pos int) { rebuild(cloneRemove(list, pos)) }) / overlay
	})
}

// cloneInsert returns a copy of the classifier with r placed at priority
// position pos, leaving s untouched: every rule copied once into a slice
// allocated at its final size — the rule-list copy a rebuild-per-update
// write path pays before its build.
func cloneInsert(s *rule.Set, pos int, r rule.Rule) *rule.Set {
	rules := s.Rules()
	pos = max(0, min(pos, len(rules)))
	c := make([]rule.Rule, len(rules)+1)
	copy(c, rules[:pos])
	c[pos] = r
	copy(c[pos+1:], rules[pos:])
	for i := range c {
		c[i].Priority = i
	}
	return rule.NewSetCanonical(c)
}

// cloneRemove returns a copy of the classifier without the rule at index
// i, leaving s untouched, copying once.
func cloneRemove(s *rule.Set, i int) *rule.Set {
	rules := s.Rules()
	if i < 0 || i >= len(rules) {
		return s.Clone() // Remove ignores an index out of range
	}
	c := make([]rule.Rule, len(rules)-1)
	copy(c, rules[:i])
	copy(c[i:], rules[i+1:])
	for j := range c {
		c[j].Priority = j
	}
	return rule.NewSetCanonical(c)
}

// BenchmarkGatePcapReplay: decoding a 50k-packet in-memory pcap and
// classifying it in 512-packet batches (the classifyd -pcap loop) must keep at
// least 0.48× the throughput of ClassifyBatch over the pre-decoded keys, and
// must match exactly as many packets. The floor is 0.8 × the worst of twenty
// runs of the windowed in-place decode (0.60–0.95 over the three families);
// the record-at-a-time reader it replaced measured 0.39–0.61.
func BenchmarkGatePcapReplay(b *testing.B) {
	for _, family := range []string{"acl1", "fw1", "ipc1"} {
		b.Run(family, func(b *testing.B) {
			set, eng := gateEngine(b, family, 1000, engine.Options{Seed: 1})
			trace := classbench.GenerateTrace(set, 50_000, 8)
			var pcap bytes.Buffer
			if err := iface.WriteTracePcap(&pcap, trace); err != nil {
				b.Fatal(err)
			}
			keys := make([]rule.Packet, len(trace))
			for i, e := range trace {
				keys[i] = iface.CanonicalKey(e.Key) // what the decoder will produce
			}
			ps, out := make([]rule.Packet, 512), make([]engine.Result, 512)
			matched := func(ps []rule.Packet) (n int) {
				eng.ClassifyBatch(ps, out[:len(ps)])
				for _, r := range out[:len(ps)] {
					if r.OK {
						n++
					}
				}
				return n
			}
			direct := func() (n int) {
				for lo := 0; lo < len(keys); lo += len(ps) {
					n += matched(keys[lo:min(lo+len(ps), len(keys))])
				}
				return n
			}
			replay := func() (n int) {
				r, err := iface.NewPcapReader(bytes.NewReader(pcap.Bytes()), iface.PcapConfig{})
				for err == nil {
					var got int
					got, err = r.ReadBatch(ps)
					n += matched(ps[:got])
				}
				if err != io.EOF {
					b.Fatal(err)
				}
				return n
			}
			want := direct()
			gate(b, "replay/direct", func(x float64) bool { return x >= 0.48 }, func() float64 {
				best := [2]time.Duration{1 << 62, 1 << 62}
				for pass := 0; pass < 6; pass++ { // alternating, best of 3 each
					t0 := time.Now()
					got := [2]func() int{direct, replay}[pass%2]()
					best[pass%2] = min(best[pass%2], time.Since(t0))
					if got != want {
						b.Fatalf("pass %d matched %d packets, direct matched %d", pass, got, want)
					}
				}
				return float64(best[0]) / float64(best[1])
			})
		})
	}
}

// BenchmarkGateTelemetryOverhead: on a 10k-rule acl1 HiCuts table, latency
// histograms on every span plus the flight recorder capturing every lookup
// (threshold 0) may cost at most 5% of the 512-packet batch p50 and no
// allocation. Off and armed passes alternate: this box's batch p50 sits in one
// of two modes for seconds at a time, and measuring all of one engine before
// the other reads that drift as overhead (-26% to +2% over eight runs).
func BenchmarkGateTelemetryOverhead(b *testing.B) {
	const batches, batch, rounds = 96, 512, 9
	tel := telemetry.New(telemetry.Config{})
	tel.SetSlowThreshold(0)
	set, off := gateEngine(b, "acl1", 10_000, engine.Options{})
	_, armed := gateEngine(b, "acl1", 10_000, engine.Options{Telemetry: tel})
	engines := [2]*engine.Engine{off, armed}
	trace := classbench.ZipfTrace(set, batches*batch, 256, 1.2, 8)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}
	out, lat := make([]engine.Result, batch), make([]int64, batches)
	gate(b, "armed/off", func(x float64) bool { return x <= 1.05 }, func() float64 {
		best, mallocs := [2]float64{1e18, 1e18}, [2]uint64{1 << 62, 1 << 62}
		for pass := 0; pass < 2*(rounds+1); pass++ { // the first pass of each engine is warm-up
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := range lat {
				t0 := time.Now()
				engines[pass%2].ClassifyBatch(keys[i*batch:(i+1)*batch], out)
				lat[i] = time.Since(t0).Nanoseconds()
			}
			runtime.ReadMemStats(&m1)
			if pass < 2 {
				continue
			}
			best[pass%2] = min(best[pass%2], p50(lat))
			mallocs[pass%2] = min(mallocs[pass%2], m1.Mallocs-m0.Mallocs)
		}
		if mallocs != [2]uint64{} {
			b.Fatalf("steady-state mallocs per %d batches: off %d, armed %d, want 0 and 0", batches, mallocs[0], mallocs[1])
		}
		return best[1] / best[0]
	})
	if n, c := tel.LookupBatch.Snapshot().Count(), tel.Slow.Captured(); n == 0 || c == 0 {
		b.Fatalf("armed engine recorded %d histogram samples and %d captures: the ratio is void", n, c)
	}
}
