package engine

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"neurocuts/internal/compiled"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
	"neurocuts/internal/tree"
)

// Options carries the build parameters shared across backends. The zero
// value selects sensible defaults for every field.
type Options struct {
	// Binth is the leaf threshold for the tree-based backends
	// (0 selects tree.DefaultBinth).
	Binth int
	// Timesteps is the NeuroCuts training budget (0 selects 5000).
	Timesteps int
	// Workers is the NeuroCuts rollout worker count (0 selects 2).
	Workers int
	// Seed seeds stochastic backends (0 selects 1).
	Seed int64
	// TimeSpaceCoeff overrides the NeuroCuts time-space tradeoff coefficient
	// c (Equation 5 of the paper: 1 optimises classification time, 0 memory
	// footprint) when TimeSpaceCoeffSet is true. The pair exists because 0
	// is a meaningful coefficient, so the zero Options value alone cannot
	// distinguish "unset" from "space-optimised".
	TimeSpaceCoeff    float64
	TimeSpaceCoeffSet bool
	// LogReward makes NeuroCuts scale rewards with f(x) = log(x) instead of
	// the linear default — the paper's choice whenever c < 1, making time
	// and space commensurable in the combined objective.
	LogReward bool
	// SimplePartition allows NeuroCuts the coverage-threshold partition
	// action at the top node (the paper's "simple" partitioning); the
	// default trains a single unpartitioned tree.
	SimplePartition bool
	// Shards is read by nothing: every ClassifyBatch runs to completion on
	// its caller. It stays only because benchmarks/e2e still sets it.
	Shards int
	// FlowCacheEntries sizes the engine's lock-free, 4-way set-associative
	// flow cache (rounded up to a power of two, 32 bytes an entry). 0
	// disables the cache; more than MaxFlowCacheEntries is an error. The
	// cache memoises (5-tuple -> winning rule's position) per rule-list
	// generation, which pays off on skewed traffic where few flows carry
	// most packets.
	FlowCacheEntries int
	// OnlineUpdates is read by nothing; it stays until benchmarks/e2e, which only a benchmark-scoped PR may edit, stops setting it.
	OnlineUpdates bool
	// JournalPath enables the durable update journal at this path: every
	// acknowledged update is appended (and synced) before its snapshot is
	// published, and an existing journal is replayed at engine construction
	// for crash-consistent warm starts.
	JournalPath string
	// JournalNoSync disables the per-record fsync. Updates get faster but a
	// machine crash may lose the latest acknowledged records (a process
	// crash alone does not).
	JournalNoSync bool
	// CompactThreshold is the pending-update count (overlay rules plus
	// tombstones) that triggers background compaction. 0 selects
	// DefaultCompactThreshold; negative disables background compaction.
	CompactThreshold int
	// Telemetry, when non-nil, records every serving and update path into
	// the shared online-telemetry instance (internal/telemetry): latency
	// histograms on single/batch lookups and Insert/Delete/compaction, and
	// the slow-lookup flight recorder when its threshold is enabled. One
	// instance is typically shared by every engine (and the TCP server) of
	// a process so one scrape covers it all.
	Telemetry *telemetry.Telemetry
	// TelemetryTable is the table label flight-recorder entries carry
	// ("default" when empty). Multi-table daemons set it per engine.
	TelemetryTable string
	// CompactMaxAge, when positive, compacts a non-empty overlay older than
	// this even below the size threshold, bounding how stale the delta can
	// get on a quiet ruleset. Note that compaction folds the in-memory
	// overlay only — the on-disk journal keeps growing until a checkpoint
	// (SaveArtifact over the engine's own artifact, or LoadArtifact)
	// rotates it; long-running journaling deployments should checkpoint
	// periodically to bound replay time.
	CompactMaxAge time.Duration
}

func (o Options) withDefaults() Options {
	if o.Binth <= 0 {
		o.Binth = tree.DefaultBinth
	}
	if o.Timesteps <= 0 {
		o.Timesteps = 5000
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// validate rejects options no engine can be built with.
func (o Options) validate() error {
	if o.FlowCacheEntries > MaxFlowCacheEntries {
		return fmt.Errorf("engine: flow cache budget of %d entries exceeds the cap of %d", o.FlowCacheEntries, MaxFlowCacheEntries)
	}
	return nil
}

// treeBuilder grows a backend's decision trees over a rule set.
type treeBuilder func(set *rule.Set, opts Options) ([]*tree.Tree, error)

// backendEntry is one registered backend.
type backendEntry struct {
	name    string
	display string
	trees   treeBuilder
}

// registry holds every backend. It is filled only by package init
// functions, so it is read without a lock.
var registry = map[string]backendEntry{}

// register adds a backend to the registry under a lower-case name with a
// human-facing display name. It panics on duplicate registration.
func register(name, display string, trees treeBuilder) {
	key := strings.ToLower(name)
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("engine: backend %q registered twice", key))
	}
	registry[key] = backendEntry{name: key, display: display, trees: trees}
}

func lookupBackend(name string) (backendEntry, error) {
	entry, ok := registry[strings.ToLower(name)]
	if !ok {
		return backendEntry{}, fmt.Errorf("engine: unknown backend %q (have: %s)",
			name, strings.Join(Backends(), ", "))
	}
	return entry, nil
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	return slices.Sorted(maps.Keys(registry))
}

// DisplayName returns the backend's human-facing name ("hicuts" ->
// "HiCuts"), or the input unchanged when the name is not registered.
func DisplayName(name string) string {
	if entry, ok := registry[strings.ToLower(name)]; ok {
		return entry.display
	}
	return name
}

// NewWithOptions builds the named backend with explicit options and returns
// its compiled classifier and build-time metrics. Use NewEngine for the
// flow cache and updates.
func NewWithOptions(name string, set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
	entry, err := lookupBackend(name)
	if err != nil {
		return nil, Metrics{}, err
	}
	return entry.build(set, opts.withDefaults())
}

// BuildTrees grows the named backend's decision trees with the options the
// engine builds it with, before compilation: for callers that study the
// trees themselves (their shape, per-level cuts) rather than serve them.
func BuildTrees(name string, set *rule.Set, opts Options) ([]*tree.Tree, error) {
	entry, err := lookupBackend(name)
	if err != nil {
		return nil, err
	}
	return entry.trees(set, opts.withDefaults())
}
