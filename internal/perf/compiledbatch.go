package perf

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/hypercuts"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// CompiledBatchComparison is the outcome of the compiledbatch perf cell: the
// same trace classified through the compiled form's scalar per-packet lookup
// (LookupIndex) and through the frontier walk (LookupBatch), on one tree
// backend at serving scale. The gated quantity is batch latency at the
// median: every serving path hands its cache misses to LookupBatch, so it
// must never be slower than the scalar loop it replaces, on single trees and
// on multi-root forests alike.
type CompiledBatchComparison struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	// Group is how many packets the walk advances together
	// (compiled.BatchGroup).
	Group int `json:"group"`
	// Batches and BatchSize describe the measured workload: Batches windows
	// of BatchSize packets per pass.
	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`
	// ZipfPackets and WorstDepthPackets are the trace composition: a skewed
	// rule-directed half and an adversarial half steered to the tree's
	// deepest leaves (the longest dependent-load chains).
	ZipfPackets       int `json:"zipf_packets"`
	WorstDepthPackets int `json:"worst_depth_packets"`
	// Per-batch latency percentiles, nanoseconds, from the best pass.
	ScalarP50Nanos float64 `json:"scalar_p50_nanos"`
	ScalarP99Nanos float64 `json:"scalar_p99_nanos"`
	BatchP50Nanos  float64 `json:"batch_p50_nanos"`
	BatchP99Nanos  float64 `json:"batch_p99_nanos"`
	// Aggregate throughput, packets per second, best pass.
	ScalarPacketsPerSec float64 `json:"scalar_packets_per_sec"`
	BatchPacketsPerSec  float64 `json:"batch_packets_per_sec"`
	// Factor is ScalarP50Nanos / BatchP50Nanos: above 1, the walk beats
	// per-packet lookups at the median.
	Factor float64 `json:"factor"`
}

// compiledBatchSink defeats dead-code elimination of the scalar loop.
var compiledBatchSink int

// MeasureCompiledBatch builds one tree backend over a generated rule set,
// compiles it, and classifies the same mixed trace — half Zipf-skewed
// rule-directed traffic, half worst-case-depth packets steered to the
// deepest leaves — through the scalar and the batched compiled lookup,
// measuring per-batch latency (best of `runs` passes per path).
func MeasureCompiledBatch(family string, size int, backend string, batches, batchSize, runs int, cfg RunConfig) (CompiledBatchComparison, error) {
	cfg = cfg.WithDefaults()
	if batches <= 0 {
		batches = 96
	}
	if batchSize <= 0 {
		batchSize = 512
	}
	if runs <= 0 {
		runs = 3
	}
	res := CompiledBatchComparison{
		Family: family, Size: size, Backend: backend,
		Group: compiled.BatchGroup, Batches: batches, BatchSize: batchSize,
	}

	fam, err := classbench.FamilyByName(family)
	if err != nil {
		return res, err
	}
	set := classbench.Generate(fam, size, cfg.Seed)
	c, err := buildCompiledBackend(backend, set, cfg.Binth)
	if err != nil {
		return res, err
	}

	// Trace: a flow-skewed half (the cache-miss traffic a serving path
	// actually batches) and a worst-depth half (every packet rides a
	// maximum-length node chain), shuffled together deterministically.
	total := batches * batchSize
	zipfN := total / 2
	worstN := total - zipfN
	var entries []packet.TraceEntry
	entries = append(entries, classbench.ZipfTrace(set, zipfN, cfg.Flows, cfg.ZipfSkew, cfg.Seed+7)...)
	worst := c.WorstCaseDepthPackets(worstN, cfg.Seed+13)
	entries = append(entries, classbench.WorstCaseTrace(set, worst)...)
	res.ZipfPackets, res.WorstDepthPackets = zipfN, len(worst)
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	keys := make([]rule.Packet, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}

	out := make([]int32, batchSize)
	scalarLats, scalarPPS := measureCompiledPasses(keys, batches, batchSize, runs, func(ps []rule.Packet) {
		s := 0
		for i := range ps {
			s += c.LookupIndex(ps[i])
		}
		compiledBatchSink = s
	})
	batchLats, batchPPS := measureCompiledPasses(keys, batches, batchSize, runs, func(ps []rule.Packet) {
		c.LookupBatch(ps, out[:len(ps)])
	})

	res.ScalarP50Nanos = percentile(scalarLats, 0.50)
	res.ScalarP99Nanos = percentile(scalarLats, 0.99)
	res.BatchP50Nanos = percentile(batchLats, 0.50)
	res.BatchP99Nanos = percentile(batchLats, 0.99)
	res.ScalarPacketsPerSec = scalarPPS
	res.BatchPacketsPerSec = batchPPS
	if res.BatchP50Nanos > 0 {
		res.Factor = res.ScalarP50Nanos / res.BatchP50Nanos
	}
	return res, nil
}

// buildCompiledBackend builds the named tree backend over the set and
// compiles it. Only the deterministic tree builders are supported — the
// learned backend would put minutes of training inside a perf cell.
func buildCompiledBackend(backend string, set *rule.Set, binth int) (*compiled.Classifier, error) {
	var trees []*tree.Tree
	switch backend {
	case "hicuts":
		cfg := hicuts.DefaultConfig()
		if binth > 0 {
			cfg.Binth = binth
		}
		t, err := hicuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		trees = []*tree.Tree{t}
	case "hypercuts":
		cfg := hypercuts.DefaultConfig()
		if binth > 0 {
			cfg.Binth = binth
		}
		t, err := hypercuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		trees = []*tree.Tree{t}
	case "efficuts":
		cfg := efficuts.DefaultConfig()
		if binth > 0 {
			cfg.Binth = binth
		}
		cl, err := efficuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		trees = cl.Trees
	case "cutsplit":
		cfg := cutsplit.DefaultConfig()
		if binth > 0 {
			cfg.Binth = binth
		}
		cl, err := cutsplit.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		trees = cl.Trees
	default:
		return nil, fmt.Errorf("perf: compiledbatch cell does not support backend %q", backend)
	}
	return compiled.Compile(set, trees...)
}

// measureCompiledPasses drives classify over `batches` disjoint windows of
// the trace per pass, returning the sorted per-batch latencies of the best
// pass (lowest p50 — the gated percentile) and the best pass's aggregate
// packet rate. The first pass doubles as cache warmup; best-of-N then
// discards its cold-start cost.
func measureCompiledPasses(keys []rule.Packet, batches, batchSize, runs int, classify func([]rule.Packet)) ([]int64, float64) {
	var bestLats []int64
	bestPPS := 0.0
	for run := 0; run < runs; run++ {
		lats := make([]int64, 0, batches)
		start := time.Now()
		total := 0
		for b := 0; b < batches; b++ {
			lo := (b * batchSize) % len(keys)
			hi := lo + batchSize
			if hi > len(keys) {
				hi = len(keys)
			}
			t0 := time.Now()
			classify(keys[lo:hi])
			lats = append(lats, time.Since(t0).Nanoseconds())
			total += hi - lo
		}
		elapsed := time.Since(start).Seconds()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		if bestLats == nil || percentile(lats, 0.50) < percentile(bestLats, 0.50) {
			bestLats = lats
		}
		if pps := float64(total) / elapsed; pps > bestPPS {
			bestPPS = pps
		}
	}
	return bestLats, bestPPS
}

// CheckCompiledBatch asserts the walk's headline claim: batch p50 must reach
// minFactor times the scalar p50 (Factor = ScalarP50 / BatchP50, so minFactor
// 1.0 means "at least as fast"). Returns a violation message when the claim
// does not hold.
func CheckCompiledBatch(r CompiledBatchComparison, minFactor float64) (violation string) {
	if minFactor <= 0 || r.Factor >= minFactor {
		return ""
	}
	return fmt.Sprintf(
		"%s_%d_%s batch=%d: batch p50 %.0fns vs scalar %.0fns is only %.2fx (want >= %.2fx)",
		r.Family, r.Size, r.Backend, r.BatchSize,
		r.BatchP50Nanos, r.ScalarP50Nanos, r.Factor, minFactor)
}
