// Package telemetry is the serving system's online observability core:
// lock-free, fully preallocated latency histograms recorded on every
// serving path, and a slow-lookup flight recorder capturing the worst
// recent lookups above a configurable threshold.
//
// The design constraint is the repository's standing 0 allocs/op pin on
// every hot path: a histogram sample is one atomic add into a
// power-of-two nanosecond bucket on a cache-line-padded stripe, and a
// flight-recorder capture is a fixed number of atomic word stores into a
// preallocated ring — no locks, no allocation, no sum register (the
// Prometheus _sum is derived from bucket midpoints at scrape time).
// Concurrent recorders spread across stripes; a scrape merges stripes into
// one snapshot.
//
// One Telemetry instance is shared by everything serving a process: the
// engine's single and sharded-batch lookup paths, the updater's
// Insert/Delete apply and compaction, and the TCP server's request
// handling. The admin plane renders the
// histograms as native Prometheus histogram families on /metrics and the
// flight recorder as JSON on /debug/slow.
package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pre-seeded intern IDs for the serving paths. New pre-seeds these in
// order, so the constants hold for every Telemetry instance.
const (
	pathNone uint32 = iota
	PathSingle
	PathBatch
)

// Telemetry aggregates the process's serving histograms and the slow
// flight recorder. All methods are safe for concurrent use; the recording
// methods are additionally lock-free and allocation-free. A nil *Telemetry
// is a valid "disabled" instance for the threshold helpers, but callers
// must nil-check before touching the histogram fields.
type Telemetry struct {
	// Lookup holds per-packet latencies from the engine's single-lookup
	// path; LookupBatch holds whole-call latencies from the engine's batch
	// path (one sample per ClassifyBatch call, not per packet).
	Lookup      *Histogram
	LookupBatch *Histogram
	// UpdateInsert / UpdateDelete hold the full apply latency of one
	// Insert/Delete (overlay derive + journal + publish, or rebuild);
	// Compaction holds background and synchronous compaction durations.
	UpdateInsert *Histogram
	UpdateDelete *Histogram
	Compaction   *Histogram
	// ServerV2 holds per-frame handling latencies of the TCP front end
	// (wire protocol version 2, the only one).
	ServerV2 *Histogram

	// Slow is the flight recorder; it captures only when the slow
	// threshold is enabled (SetSlowThreshold with a non-negative value).
	Slow *Recorder

	// slowNanos is the capture threshold in nanoseconds; negative
	// disables the recorder.
	slowNanos atomic.Int64

	// Intern table: string -> dense ID, so hot-path flight-recorder
	// samples carry uint32s instead of string headers. Writes (Intern)
	// take the mutex and happen only on cold paths (engine construction,
	// snapshot publish); resolution at dump time takes it once per dump.
	strMu  sync.Mutex
	strs   []string
	strIDs map[string]uint32
}

// New builds a Telemetry instance. The serving histograms get one stripe
// per GOMAXPROCS (rounded up to a power of two, at most 64): more stripes
// cost memory (34 counters each) and buy less cross-core contention. The
// flight recorder holds 256 samples. The slow threshold starts disabled;
// enable it with SetSlowThreshold.
func New() *Telemetry {
	stripes := min(runtime.GOMAXPROCS(0), 64)
	t := &Telemetry{
		Lookup:       NewHistogram(stripes),
		LookupBatch:  NewHistogram(stripes),
		UpdateInsert: NewHistogram(1),
		UpdateDelete: NewHistogram(1),
		Compaction:   NewHistogram(1),
		ServerV2:     NewHistogram(stripes),
		Slow:         NewRecorder(256),
		strIDs:       map[string]uint32{},
	}
	t.slowNanos.Store(-1)
	// Seed the path IDs so the Path* constants hold.
	for _, s := range []string{"", "single", "batch"} {
		t.Intern(s)
	}
	return t
}

// Intern returns a dense ID for s, assigning one on first use. Cold-path
// only (takes a mutex): engine construction and snapshot publish intern
// their table/backend names once and pass the IDs to Record.
func (t *Telemetry) Intern(s string) uint32 {
	t.strMu.Lock()
	defer t.strMu.Unlock()
	if id, ok := t.strIDs[s]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.strIDs[s] = id
	return id
}

// lookupString resolves an interned ID ("" for unknown IDs).
func (t *Telemetry) lookupString(id uint32) string {
	t.strMu.Lock()
	defer t.strMu.Unlock()
	if int(id) < len(t.strs) {
		return t.strs[id]
	}
	return ""
}

// SetSlowThreshold sets the flight recorder's capture threshold in
// nanoseconds: lookups at or above it are captured. 0 captures every
// lookup; negative disables the recorder.
func (t *Telemetry) SetSlowThreshold(ns int64) { t.slowNanos.Store(ns) }

// SlowThresholdNanos returns the current capture threshold (negative:
// disabled).
func (t *Telemetry) SlowThresholdNanos() int64 {
	if t == nil {
		return -1
	}
	return t.slowNanos.Load()
}

// SlowEnough reports whether a lookup of the given latency should be
// captured. Nil-safe and branch-cheap: one atomic load and a compare.
func (t *Telemetry) SlowEnough(ns int64) bool {
	if t == nil {
		return false
	}
	th := t.slowNanos.Load()
	return th >= 0 && ns >= th
}

// SlowEntries resolves the flight recorder's current contents, sorted
// worst-first.
func (t *Telemetry) SlowEntries() []SlowEntry {
	if t == nil {
		return nil
	}
	return t.Slow.entries(t.lookupString)
}

// Label is one exposition label pair.
type Label struct {
	Name  string
	Value string
}

// SeriesSnapshot is one labelled series of a histogram family at scrape
// time.
type SeriesSnapshot struct {
	Labels []Label
	Hist   HistogramSnapshot
}

// FamilySnapshot is one Prometheus histogram family at scrape time: its
// metric name, help string and labelled series. The admin plane renders
// each series as _bucket/_sum/_count samples with `le` labels.
type FamilySnapshot struct {
	Name   string
	Help   string
	Series []SeriesSnapshot
}

// Families returns the scrape-time snapshot of every histogram family.
// The family and label names are part of the exposition contract:
// neurocuts_lookup_latency_seconds{path=...},
// neurocuts_update_latency_seconds{op=...} and
// neurocuts_server_request_latency_seconds{proto=...}.
func (t *Telemetry) Families() []FamilySnapshot {
	if t == nil {
		return nil
	}
	return []FamilySnapshot{
		{
			Name: "neurocuts_lookup_latency_seconds",
			Help: "Engine lookup latency: path=\"single\" is one packet through Classify, path=\"batch\" is one per-shard span through ClassifyBatch.",
			Series: []SeriesSnapshot{
				{Labels: []Label{{"path", "single"}}, Hist: t.Lookup.Snapshot()},
				{Labels: []Label{{"path", "batch"}}, Hist: t.LookupBatch.Snapshot()},
			},
		},
		{
			Name: "neurocuts_update_latency_seconds",
			Help: "Rule update latency: op=\"insert\"/\"delete\" is one full apply (overlay derive, journal, publish — or rebuild), op=\"compact\" is one base compaction.",
			Series: []SeriesSnapshot{
				{Labels: []Label{{"op", "insert"}}, Hist: t.UpdateInsert.Snapshot()},
				{Labels: []Label{{"op", "delete"}}, Hist: t.UpdateDelete.Snapshot()},
				{Labels: []Label{{"op", "compact"}}, Hist: t.Compaction.Snapshot()},
			},
		},
		{
			Name: "neurocuts_server_request_latency_seconds",
			Help: "TCP front-end per-request handling latency by wire protocol version.",
			Series: []SeriesSnapshot{
				{Labels: []Label{{"proto", "v2"}}, Hist: t.ServerV2.Snapshot()},
			},
		},
	}
}
