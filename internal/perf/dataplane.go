package perf

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"runtime"

	"neurocuts/internal/classbench"
	"neurocuts/internal/dataplane"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// DataplaneComparison is the outcome of the dataplane perf cell: the same
// skewed batched lookup workload, submitted concurrently, served once by
// the engine called directly (the "pool" fields: one shared lock-free flow
// cache, each batch run on its submitter, fan-out only past the work gate)
// and once by the run-to-completion dataplane (flow-hash demux, per-core
// loops, private per-core caches, completion vectors). The compared
// quantity is batch latency at the tail. Neither order is a bug: a single
// submitter is served fastest by the engine directly, so CI reports the
// factor without gating it.
type DataplaneComparison struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	// Cores is both the pool engine's shard count and the dataplane's loop
	// count, so the two paths get the same parallelism budget.
	Cores int `json:"cores"`
	// Submitters is the number of goroutines concurrently submitting
	// batches; Batches is the measured batch count per submitter per pass.
	Submitters int `json:"submitters"`
	Batches    int `json:"batches"`
	BatchSize  int `json:"batch_size"`
	// CacheEntries is the flow-cache budget given to each path (sharded
	// cache on the pool path, split across per-core caches on the
	// dataplane path).
	CacheEntries int `json:"cache_entries"`
	// Batch-latency percentiles, nanoseconds, per-percentile minimum
	// across passes.
	PoolP50Nanos      float64 `json:"pool_p50_nanos"`
	PoolP99Nanos      float64 `json:"pool_p99_nanos"`
	DataplaneP50Nanos float64 `json:"dataplane_p50_nanos"`
	DataplaneP99Nanos float64 `json:"dataplane_p99_nanos"`
	// Aggregate throughput, packets per second, best pass.
	PoolPacketsPerSec      float64 `json:"pool_packets_per_sec"`
	DataplanePacketsPerSec float64 `json:"dataplane_packets_per_sec"`
	// Factor is PoolP99Nanos / DataplaneP99Nanos: above 1, the dataplane's
	// tail is shorter than the worker pool's.
	Factor float64 `json:"factor"`
}

// MeasureDataplane builds the backend twice over one generated rule set —
// worker-pool serving and dataplane serving — and pushes the same
// flow-skewed trace through both from `submitters` concurrent goroutines,
// measuring per-batch latency. Both paths get identical parallelism
// (cores) and flow-cache budget; only the serving architecture differs.
func MeasureDataplane(family string, size int, backend string, cores, submitters, batches, batchSize, cacheEntries, runs int, cfg RunConfig) (DataplaneComparison, error) {
	cfg = cfg.WithDefaults()
	if cores == 0 {
		// Machine-matched: one loop per processor is the run-to-completion
		// deployment shape (more loops than processors just adds handoffs).
		cores = runtime.GOMAXPROCS(0)
	} else if cores < 0 {
		cores = 8
	}
	if submitters <= 0 {
		submitters = 4
	}
	if batches <= 0 {
		batches = 64
	}
	if batchSize <= 0 {
		batchSize = 512
	}
	if cacheEntries < 0 {
		cacheEntries = 0
	}
	if runs <= 0 {
		runs = 3
	}
	res := DataplaneComparison{
		Family: family, Size: size, Backend: backend,
		Cores: cores, Submitters: submitters, Batches: batches,
		BatchSize: batchSize, CacheEntries: cacheEntries,
	}

	fam, err := classbench.FamilyByName(family)
	if err != nil {
		return res, err
	}
	set := classbench.Generate(fam, size, cfg.Seed)
	// The trace generator emits flow bursts (few flows carry most packets),
	// which is the regime both flow caches are built for.
	trace := classbench.GenerateTrace(set, submitters*batches*batchSize, cfg.Seed+7)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}

	poolEng, err := engine.NewEngine(backend, set, engine.Options{
		Binth: cfg.Binth, Seed: cfg.Seed,
		Shards: cores, FlowCacheEntries: cacheEntries,
	})
	if err != nil {
		return res, err
	}
	defer poolEng.Close()

	dpEng, err := engine.NewEngine(backend, set, engine.Options{
		Binth: cfg.Binth, Seed: cfg.Seed,
		Shards: cores, FlowCacheEntries: 0,
	})
	if err != nil {
		return res, err
	}
	defer dpEng.Close()
	dp, err := dataplane.Attach(dpEng, dataplane.Config{Cores: cores, CacheEntries: cacheEntries})
	if err != nil {
		return res, err
	}

	poolLats, poolPPS := measureBatchLatency(poolEng.ClassifyBatch, keys, submitters, batches, batchSize, runs)
	dpLats, dpPPS := measureBatchLatency(dp.ClassifyBatch, keys, submitters, batches, batchSize, runs)

	res.PoolP50Nanos = percentile(poolLats, 0.50)
	res.PoolP99Nanos = percentile(poolLats, 0.99)
	res.DataplaneP50Nanos = percentile(dpLats, 0.50)
	res.DataplaneP99Nanos = percentile(dpLats, 0.99)
	res.PoolPacketsPerSec = poolPPS
	res.DataplanePacketsPerSec = dpPPS
	if res.DataplaneP99Nanos > 0 {
		res.Factor = res.PoolP99Nanos / res.DataplaneP99Nanos
	}
	return res, nil
}

// measureBatchLatency drives classify from `submitters` concurrent
// goroutines, each submitting `batches` disjoint windows of the trace per
// pass, and returns the sorted per-batch latencies of the best pass (the
// pass with the lowest p99 — best-of-N for the same noise-suppression
// reason as every other cell) plus the best pass's aggregate packet rate.
func measureBatchLatency(classify func([]rule.Packet, []engine.Result), keys []rule.Packet, submitters, batches, batchSize, runs int) ([]int64, float64) {
	var bestLats []int64
	bestPPS := 0.0
	totalPackets := submitters * batches * batchSize
	for run := 0; run < runs; run++ {
		lats := make([][]int64, submitters)
		var wg sync.WaitGroup
		start := time.Now()
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				out := make([]engine.Result, batchSize)
				mine := make([]int64, 0, batches)
				for b := 0; b < batches; b++ {
					lo := ((s*batches + b) * batchSize) % len(keys)
					hi := lo + batchSize
					if hi > len(keys) {
						hi = len(keys)
					}
					t0 := time.Now()
					classify(keys[lo:hi], out[:hi-lo])
					mine = append(mine, time.Since(t0).Nanoseconds())
				}
				lats[s] = mine
			}(s)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		merged := make([]int64, 0, submitters*batches)
		for _, l := range lats {
			merged = append(merged, l...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		if bestLats == nil || percentile(merged, 0.99) < percentile(bestLats, 0.99) {
			bestLats = merged
		}
		if pps := float64(totalPackets) / elapsed; pps > bestPPS {
			bestPPS = pps
		}
	}
	return bestLats, bestPPS
}

// CheckDataplane asserts the dataplane's headline claim: under concurrent
// submitters, batch p99 through the run-to-completion path must be no
// worse than minFactor times better than the worker pool's (Factor =
// PoolP99 / DataplaneP99, so minFactor 1.0 means "at least as good"). It
// returns a violation message when the claim does not hold.
func CheckDataplane(r DataplaneComparison, minFactor float64) (violation string) {
	if minFactor > 0 && r.Factor < minFactor {
		return fmt.Sprintf(
			"%s_%d_%s cores=%d submitters=%d: dataplane batch p99 %.0fns vs pool %.0fns is only %.2fx (want >= %.2fx)",
			r.Family, r.Size, r.Backend, r.Cores, r.Submitters,
			r.DataplaneP99Nanos, r.PoolP99Nanos, r.Factor, minFactor)
	}
	return ""
}
