// Package dataplane classifies batches against an engine through a private
// flow cache, running every lookup to completion on the calling goroutine —
// the same serving path as engine.Engine.ClassifyBatch.
//
// The names here exist only because the benchmark's ingest_dataplane
// workload (benchmarks/e2e) compiles against them. They go with the
// benchmark change that points that workload at engine.ClassifyBatch
// (ROADMAP.md).
package dataplane

import (
	"sync/atomic"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// Config parameterises Attach.
type Config struct {
	// Cores is ignored: every lookup runs on its caller.
	Cores int
	// CacheEntries sizes the private flow cache; 0 disables it.
	CacheEntries int
}

// Dataplane is a batch classifier over an engine with its own flow cache.
type Dataplane struct {
	eng     *engine.Engine
	cache   *engine.FlowCache
	batches atomic.Uint64
}

// Attach builds a Dataplane over eng. It never fails.
func Attach(eng *engine.Engine, cfg Config) (*Dataplane, error) {
	return &Dataplane{eng: eng, cache: engine.NewFlowCache(cfg.CacheEntries)}, nil
}

// ClassifyBatch classifies ps into out (at least as long as ps) against the
// engine's current snapshot, through the private cache, on the caller.
func (d *Dataplane) ClassifyBatch(ps []rule.Packet, out []engine.Result) {
	d.batches.Add(1)
	d.eng.CurrentView().ClassifyCached(d.cache, ps, out)
}

// CoreStats is kept for the benchmark's reads; no Stats carries one.
type CoreStats struct {
	Parks             uint64
	RingHighWatermark int
	EpochLag          uint64
}

// Stats is a point-in-time view of the counters. PerCore is always nil.
type Stats struct {
	Batches     uint64
	CacheHits   uint64
	CacheMisses uint64
	PerCore     []CoreStats
}

// Stats samples the counters.
func (d *Dataplane) Stats() Stats {
	hits, misses := d.cache.Stats()
	return Stats{Batches: d.batches.Load(), CacheHits: hits, CacheMisses: misses}
}
