// Package classifier is the public SDK for embedding this repository's
// packet classifiers in external Go programs.
//
// It is a stable facade over the internal engine: every registered backend
// (the learned NeuroCuts trees, HiCuts, HyperCuts, EffiCuts, CutSplit and
// the linear-search reference) is reachable through one constructor with
// functional options, and the types callers need — rules, packets,
// results — are re-exported here, so no program ever imports
// neurocuts/internal/... directly.
//
// Open builds (or warm-starts) a classifier:
//
//	rules, _ := classifier.GenerateRules("acl1", 1000, 1)
//	c, err := classifier.Open(rules,
//		classifier.WithBackend("hicuts"),
//		classifier.WithFlowCache(4096))
//	defer c.Close()
//
//	match, ok, err := c.Classify(ctx, classifier.Packet{SrcIP: ..., DstPort: 443, Proto: 6})
//
// Lookups are context-aware: Classify checks the context before running,
// and ClassifyBatch classifies in bounded chunks so cancellation and
// deadlines take effect mid-batch. Rule updates (Insert, Delete — each lands
// in a delta overlay that a compaction goroutine started by the triggering
// update folds into the base, so no update rebuilds the backend), compiled
// artifacts (Save, Load, WithArtifact) and the update journal (WithJournal)
// are the same capabilities the bundled classifyd daemon serves over TCP —
// see internal/server for the wire protocol and cmd/classifyd for the
// daemon.
package classifier

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"neurocuts/internal/admin"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

// Packet is a point in the 5-dimensional classification space: the header
// fields a classifier inspects (source/destination IP, source/destination
// port, protocol).
type Packet = rule.Packet

// Rule is a single classification rule: one inclusive range per dimension
// plus a priority (lower wins).
type Rule = rule.Rule

// Range is an inclusive integer interval over one dimension.
type Range = rule.Range

// Dimension identifies one of the five classification dimensions.
type Dimension = rule.Dimension

// The five classification dimensions, re-exported for rule construction.
const (
	DimSrcIP   = rule.DimSrcIP
	DimDstIP   = rule.DimDstIP
	DimSrcPort = rule.DimSrcPort
	DimDstPort = rule.DimDstPort
	DimProto   = rule.DimProto
	// NumDims is the number of classification dimensions.
	NumDims = rule.NumDims
)

// RuleSet is an ordered packet classifier: a list of rules where earlier
// rules have higher priority.
type RuleSet = rule.Set

// Result is the outcome of classifying one packet in a batch.
type Result = engine.Result

// Metrics is the backend-independent cost summary a classifier reports
// (lookup cost, memory footprint, stored entries).
type Metrics = engine.Metrics

// UpdateResult describes the snapshot published by a successful Insert,
// Delete or Load.
type UpdateResult = engine.UpdateResult

// ErrRuleNotFound is wrapped by Delete when no live rule carries the
// requested ID.
var ErrRuleNotFound = engine.ErrRuleNotFound

// ErrClosed is returned by operations on a closed Classifier.
var ErrClosed = errors.New("classifier: closed")

// ErrNotSupported is returned by control-plane operations (Insert, Delete,
// Save, Load, Rules) on a shared-memory transport handle: the classifier
// lives in the serving process, which owns the backend, its updates and its
// artifacts. Drive those through the serving process (classifyd's -query,
// or its own SDK handle).
var ErrNotSupported = errors.New("classifier: operation not supported over the shared-memory transport")

// Classifier is an open classification engine: a built (or artifact-loaded)
// backend with cached batch lookup, atomic rule updates and optional
// online-update durability. Lookups and updates are safe for concurrent
// use from any number of goroutines. Close releases the classifier's
// background resources; call it once outstanding operations have returned
// (operations started after Close fail with ErrClosed).
type Classifier struct {
	eng *engine.Engine
	// shm is non-nil when WithSharedMemory connected this handle to a
	// serving process's shared-memory ring instead of a local engine (eng is
	// then nil, and control-plane calls fail with ErrNotSupported).
	shm *iface.ShmClient
	// tel is non-nil when WithTelemetry/WithSlowThreshold armed the online
	// latency telemetry.
	tel    *telemetry.Telemetry
	closed atomic.Bool
}

// Open builds a classifier over the rule set. The backend defaults to
// "hicuts"; pass WithBackend to select another, or WithArtifact to
// warm-start from a compiled artifact instead of building (rules must then
// be nil — the artifact embeds its rule set).
func Open(rules *RuleSet, opts ...Option) (*Classifier, error) {
	var cfg config
	cfg.backend = "hicuts"
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.shmPath != "" {
		if rules != nil {
			return nil, errors.New("classifier: WithSharedMemory connects to a serving process; pass nil rules")
		}
		if cfg.artifact != "" || cfg.telemetry || cfg.opts != (engine.Options{}) {
			return nil, errors.New("classifier: WithSharedMemory is a pure transport; engine-configuring options belong to the serving process")
		}
		shm, err := iface.OpenShmClient(cfg.shmPath, iface.ShmClientConfig{Timeout: cfg.shmTimeout})
		if err != nil {
			return nil, err
		}
		return &Classifier{shm: shm}, nil
	}
	var tel *telemetry.Telemetry
	if cfg.telemetry {
		tel = telemetry.New()
		if cfg.slowSet {
			tel.SetSlowThreshold(cfg.slowThreshold.Nanoseconds())
		}
		cfg.opts.Telemetry = tel
	}
	var eng *engine.Engine
	var err error
	if cfg.artifact != "" {
		if rules != nil {
			return nil, errors.New("classifier: WithArtifact embeds its own rule set; pass nil rules")
		}
		eng, err = engine.NewEngineFromArtifact(cfg.artifact, cfg.opts)
	} else {
		if rules == nil {
			return nil, errors.New("classifier: nil rule set (pass WithArtifact to open without rules)")
		}
		eng, err = engine.NewEngine(cfg.backend, rules, cfg.opts)
	}
	if err != nil {
		return nil, err
	}
	return &Classifier{eng: eng, tel: tel}, nil
}

// batchChunk bounds how many packets ClassifyBatch hands to the engine
// between context checks, so a cancellation or deadline takes effect
// mid-batch instead of only at batch boundaries.
const batchChunk = 4096

// Classify returns the highest-priority rule matching the packet, or
// ok=false when no rule matches. It fails without classifying when ctx is
// already cancelled or past its deadline.
func (c *Classifier) Classify(ctx context.Context, key Packet) (match Rule, ok bool, err error) {
	if c.closed.Load() {
		return Rule{}, false, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return Rule{}, false, err
	}
	if c.shm != nil {
		// Over the ring only the winning rule's identity comes back — ID
		// and priority, as over wire protocol v2. The ranges stay on the
		// serving side.
		id, priority, ok, err := c.shm.Classify(key)
		if err != nil {
			return Rule{}, false, err
		}
		if !ok {
			return Rule{}, false, nil
		}
		return Rule{ID: id, Priority: priority}, true, nil
	}
	match, ok = c.eng.Classify(key)
	return match, ok, nil
}

// ClassifyBatch classifies every packet against one coherent rule-set
// snapshot per chunk, to completion on the calling goroutine: concurrent
// callers are the only parallelism. The context is checked between chunks:
// on cancellation the results so far are discarded and the context's error
// returned.
func (c *Classifier) ClassifyBatch(ctx context.Context, keys []Packet) ([]Result, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	out := make([]Result, len(keys))
	for lo := 0; lo < len(keys); lo += batchChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + batchChunk
		if hi > len(keys) {
			hi = len(keys)
		}
		switch {
		case c.shm != nil:
			if err := c.shm.ClassifyBatchInto(keys[lo:hi], out[lo:hi]); err != nil {
				return nil, err
			}
		default:
			c.eng.ClassifyBatch(keys[lo:hi], out[lo:hi])
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Insert adds a rule at priority position pos (0 = highest priority;
// out-of-range positions clamp to the nearest bound) and publishes the new
// snapshot atomically — concurrent lookups are never blocked. The assigned
// rule ID is returned for a later Delete.
func (c *Classifier) Insert(pos int, r Rule) (UpdateResult, error) {
	if c.closed.Load() {
		return UpdateResult{}, ErrClosed
	}
	if c.shm != nil {
		return UpdateResult{}, ErrNotSupported
	}
	res, err := c.eng.Insert(pos, r)
	return res, closedErr(err)
}

// Delete removes the rule with the given ID (as assigned by Insert, or the
// rule's list index for rules present at Open). Deleting an unknown ID
// fails with an error wrapping ErrRuleNotFound.
func (c *Classifier) Delete(id int) (UpdateResult, error) {
	if c.closed.Load() {
		return UpdateResult{}, ErrClosed
	}
	if c.shm != nil {
		return UpdateResult{}, ErrNotSupported
	}
	res, err := c.eng.Delete(id)
	return res, closedErr(err)
}

// closedErr reports an update that lost the race against Close — the engine
// closed after the closed check passed — as ErrClosed.
func closedErr(err error) error {
	if errors.Is(err, engine.ErrClosed) {
		return ErrClosed
	}
	return err
}

// Save persists the classifier as a versioned compiled artifact at path, so
// a later Open(nil, WithArtifact(path)) — or any classifyd — can serve it
// without rebuilding or retraining. Every backend saves, linear included (it
// serves as a one-leaf compiled tree).
func (c *Classifier) Save(path string) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if c.shm != nil {
		return ErrNotSupported
	}
	return c.eng.SaveArtifact(path)
}

// Load hot-swaps the compiled artifact at path in as the served classifier
// (an atomic snapshot swap; in-flight lookups finish against the previous
// rules).
func (c *Classifier) Load(path string) (UpdateResult, error) {
	if c.closed.Load() {
		return UpdateResult{}, ErrClosed
	}
	if c.shm != nil {
		return UpdateResult{}, ErrNotSupported
	}
	res, err := c.eng.LoadArtifact(path)
	return res, closedErr(err)
}

// Stats summarises the classifier's current state: identity, size, cost
// metrics and the update path's overlay, compaction and journal state.
type Stats struct {
	// Backend is the registry name of the serving backend.
	Backend string
	// Rules is the live rule count.
	Rules int
	// Version is the snapshot generation; it increases with every update.
	Version uint64
	// Metrics is the backend's cost profile.
	Metrics Metrics
	// PendingUpdates is the overlay size (inserts plus tombstones) not yet
	// compacted into the base structure.
	PendingUpdates int
	// Compactions counts completed background base rebuilds.
	Compactions uint64
	// JournalPath and JournalRecords describe the durable update journal
	// ("" / 0 when journaling is disabled).
	JournalPath    string
	JournalRecords int
	// Telemetry summarises the online latency telemetry (nil unless the
	// classifier was opened WithTelemetry or WithSlowThreshold).
	Telemetry *TelemetryStats
}

// LatencySummary condenses one latency histogram at a point in time. The
// quantiles are bucket-midpoint estimates from the power-of-two histogram,
// so they carry the bucket's resolution, not nanosecond accuracy.
type LatencySummary struct {
	// Count is the number of recorded samples.
	Count uint64
	// P50 and P99 are the estimated 50th and 99th percentile latencies.
	P50 time.Duration
	P99 time.Duration
}

// summarise condenses a histogram snapshot.
func summarise(s telemetry.HistogramSnapshot) LatencySummary {
	return LatencySummary{
		Count: s.Count(),
		P50:   time.Duration(s.Quantile(0.50)),
		P99:   time.Duration(s.Quantile(0.99)),
	}
}

// TelemetryStats is the SDK view of the online latency telemetry: one
// summary per serving path plus the flight recorder's state.
type TelemetryStats struct {
	// Lookup covers single-packet Classify calls; LookupBatch covers
	// whole engine batch calls (one sample per chunk, not per packet).
	Lookup      LatencySummary
	LookupBatch LatencySummary
	// UpdateInsert / UpdateDelete cover full update applies; Compaction
	// covers base rebuilds.
	UpdateInsert LatencySummary
	UpdateDelete LatencySummary
	Compaction   LatencySummary
	// SlowThreshold is the flight recorder's capture threshold (negative:
	// capture disabled). SlowCaptured counts captures since Open.
	SlowThreshold time.Duration
	SlowCaptured  uint64
}

// Stats returns a point-in-time summary of the classifier. A shared-memory
// transport handle reports only its backend label ("shm"): sizes, versions
// and metrics live in the serving process.
func (c *Classifier) Stats() Stats {
	if c.closed.Load() {
		return Stats{}
	}
	if c.shm != nil {
		return Stats{Backend: "shm"}
	}
	u := c.eng.UpdaterStats()
	var ts *TelemetryStats
	if c.tel != nil {
		ts = &TelemetryStats{
			Lookup:        summarise(c.tel.Lookup.Snapshot()),
			LookupBatch:   summarise(c.tel.LookupBatch.Snapshot()),
			UpdateInsert:  summarise(c.tel.UpdateInsert.Snapshot()),
			UpdateDelete:  summarise(c.tel.UpdateDelete.Snapshot()),
			Compaction:    summarise(c.tel.Compaction.Snapshot()),
			SlowThreshold: time.Duration(c.tel.SlowThresholdNanos()),
			SlowCaptured:  c.tel.Slow.Captured(),
		}
	}
	return Stats{
		Telemetry:      ts,
		Backend:        c.eng.Backend(),
		Rules:          c.eng.Len(),
		Version:        c.eng.Version(),
		Metrics:        c.eng.Metrics(),
		PendingUpdates: u.OverlayRules + u.Tombstones,
		Compactions:    u.Compactions,
		JournalPath:    u.JournalPath,
		JournalRecords: u.JournalRecords,
	}
}

// AdminHandler returns the classifier's HTTP admin plane: Prometheus-format
// metrics at /metrics (engine lookup/update counters, flow-cache
// effectiveness, the online-update subsystem's overlay/compaction/journal
// state — plus, with WithTelemetry, native latency histogram families),
// liveness and readiness probes at /healthz and /readyz, a JSON summary at
// /tables, the slow-lookup flight recorder at /debug/slow, and the standard
// profiling endpoints under /debug/pprof/. Mount it wherever the
// application serves management HTTP — typically a loopback-only listener:
//
//	go http.ListenAndServe("127.0.0.1:9100", c.AdminHandler())
//
// The handler reads live state on every request. After Close, /readyz
// reports 503 and /metrics keeps serving the final counter values.
func (c *Classifier) AdminHandler() http.Handler {
	// A shared-memory handle has no local engine (nil): no table to list.
	return admin.New(engine.SingleTable(c.eng), admin.Options{
		Telemetry: c.tel,
		Ready: func() error {
			if c.closed.Load() {
				return ErrClosed
			}
			return nil
		},
	}).Handler()
}

// Rules returns the classifier's current rule list snapshot. The returned
// set is immutable; updates publish a new one.
func (c *Classifier) Rules() *RuleSet {
	if c.closed.Load() || c.shm != nil {
		return nil
	}
	return c.eng.Rules()
}

// Backend returns the registry name of the serving backend.
func (c *Classifier) Backend() string {
	if c.closed.Load() {
		return ""
	}
	if c.shm != nil {
		return "shm"
	}
	return c.eng.Backend()
}

// Close releases the classifier's background resources (a compaction in
// flight, the age timer, the journal). The classifier must not be used
// afterwards.
func (c *Classifier) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.shm != nil {
		return c.shm.Close()
	}
	c.eng.Close()
	return nil
}

// Backends returns the registered backend names, sorted. Any of them is a
// valid WithBackend argument.
func Backends() []string { return engine.Backends() }

// BackendDisplayName returns a backend's human-facing name ("hicuts" ->
// "HiCuts"), or the input unchanged when the name is not registered.
func BackendDisplayName(name string) string { return engine.DisplayName(name) }

// JournalPathFor returns the conventional co-located journal path for a
// compiled artifact (the artifact path plus ".journal").
func JournalPathFor(artifactPath string) string { return engine.JournalPathFor(artifactPath) }

// Validate checks a rule for basic well-formedness: every range must
// satisfy Lo <= Hi and fit inside its dimension.
func Validate(r Rule) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("classifier: %w", err)
	}
	return nil
}
