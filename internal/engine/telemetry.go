package engine

import (
	"time"

	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

// This file wires the online telemetry core (internal/telemetry) into the
// engine's serving and update paths. All recording is gated on e.tel being
// non-nil, costs one atomic add per histogram sample, and allocates
// nothing — the alloc_test.go pins cover every path below with recording
// (and the flight recorder at threshold 0) enabled.

// initTelemetry captures the engine's telemetry wiring from Options. Called
// once from NewEngine / NewEngineFromArtifact after the first snapshot is
// stored, before the engine is visible to any other goroutine.
func (e *Engine) initTelemetry() {
	e.tel = e.opts.Telemetry
	if e.tel == nil {
		return
	}
	table := e.opts.TelemetryTable
	if table == "" {
		table = "default"
	}
	e.telTableID = e.tel.Intern(table)
	e.telBackendID.Store(e.tel.Intern(e.snap.Load().backend))
}

// classifyOneTimed is classifyOne plus telemetry: per-packet latency into
// the single-lookup histogram, and a flight-recorder capture when the
// sample crosses the slow threshold. Only called when e.tel != nil.
func (e *Engine) classifyOneTimed(s *snapshot, p rule.Packet) (rule.Rule, bool) {
	start := time.Now()
	r, ok, hit := e.classifyOne(s, p)
	ns := time.Since(start).Nanoseconds()
	// The sample's own low bits spread concurrent callers across stripes
	// without any goroutine identity.
	e.tel.Lookup.RecordNanos(uint64(ns), ns)
	if e.tel.SlowEnough(ns) {
		e.recordSlow(s, start, ns, telemetry.PathSingle, 1, hit, r, ok)
	}
	return r, ok
}

// classifyBatchTimed is classifyBatch plus telemetry: one sample per call
// into the batch histogram, covering the cache probe and the backend span
// alike (the call is the serving unit — per-packet timing inside a batch
// would put a clock read on every packet), and a flight-recorder capture
// when the call's per-packet average crosses the slow threshold. Only
// called when e.tel != nil.
func (e *Engine) classifyBatchTimed(s *snapshot, ps []rule.Packet, out []Result) {
	start := time.Now()
	e.classifyBatch(s, ps, out)
	ns := time.Since(start).Nanoseconds()
	e.tel.LookupBatch.RecordNanos(uint64(ns), ns)
	if n := int64(len(ps)); n > 0 && e.tel.SlowEnough(ns/n) {
		e.recordSlow(s, start, ns, telemetry.PathBatch, int32(len(ps)), false, rule.Rule{}, false)
	}
}

// recordSlow captures one flight-recorder entry for a lookup (or span)
// served from snapshot s. For single lookups r/ok carry the winner; span
// entries pass ok=false (a span has no single winning rule).
func (e *Engine) recordSlow(s *snapshot, start time.Time, ns int64, path uint32, packets int32, cacheHit bool, r rule.Rule, ok bool) {
	overlay := false
	if s.view != nil && ok {
		overlay = s.view.FromOverlay(r.ID)
	}
	ruleID := int32(-1)
	if ok {
		ruleID = int32(r.ID)
	}
	e.tel.Slow.Record(telemetry.Sample{
		UnixNanos:     start.UnixNano(),
		LatencyNanos:  ns,
		TableID:       e.telTableID,
		BackendID:     e.telBackendID.Load(),
		PathID:        path,
		Packets:       packets,
		Visits:        int32(s.m.LookupCost),
		RuleID:        ruleID,
		Version:       s.version,
		CacheHit:      cacheHit,
		OverlayWinner: overlay,
		Matched:       ok,
	})
}
