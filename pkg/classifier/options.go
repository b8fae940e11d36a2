package classifier

import (
	"time"

	"neurocuts/internal/engine"
)

// config collects the functional options into the engine's build options.
type config struct {
	backend       string
	artifact      string
	opts          engine.Options
	telemetry     bool
	slowThreshold time.Duration
	slowSet       bool
	shmPath       string
	shmTimeout    time.Duration
}

// Option configures Open.
type Option func(*config)

// WithBackend selects the classification backend by registry name
// ("neurocuts", "hicuts", "hypercuts", "efficuts", "cutsplit", "linear" —
// see Backends). The default is "hicuts".
func WithBackend(name string) Option {
	return func(c *config) { c.backend = name }
}

// WithArtifact warm-starts the classifier from a compiled artifact instead
// of building: the first lookup is served straight from the loaded
// flat-array form, with no build or train path invoked. Open's rules
// argument must be nil — the artifact embeds its rule set.
func WithArtifact(path string) Option {
	return func(c *config) { c.artifact = path }
}

// WithJournal enables the durable update journal at path: every
// acknowledged update is appended and synced before its snapshot is
// published, and an existing journal is replayed at Open for
// crash-consistent warm starts.
func WithJournal(path string) Option {
	return func(c *config) { c.opts.JournalPath = path }
}

// WithJournalNoSync disables the journal's per-record fsync: updates get
// faster, but a machine crash may lose the most recently acknowledged
// records (a process crash alone does not).
func WithJournalNoSync() Option {
	return func(c *config) { c.opts.JournalNoSync = true }
}

// WithCompactThreshold sets the pending-update count (overlay rules plus
// tombstones) that triggers background compaction. Zero selects the
// default; negative disables background compaction.
func WithCompactThreshold(n int) Option {
	return func(c *config) { c.opts.CompactThreshold = n }
}

// WithCompactMaxAge compacts a non-empty overlay older than d even below
// the size threshold, bounding how stale the delta can get on a quiet
// rule set.
func WithCompactMaxAge(d time.Duration) Option {
	return func(c *config) { c.opts.CompactMaxAge = d }
}

// WithSharedMemory connects to a serving process's shared-memory ring at
// path instead of building a local classifier — the transport a co-located
// classifyd exposes with -shm. Lookups cross a file-backed mmap region (two
// SPSC byte rings carrying wire-protocol frames; no sockets, no syscalls on
// the hot path) and return the winning rule's ID and priority, exactly as
// over TCP. Open's rules argument must be nil, and every other option is
// rejected: the handle is data-plane only, and control-plane calls fail
// with ErrNotSupported. Open waits up to timeout for the serving process to
// create and initialise the ring (0 selects 5s); a lookup that then sees no
// progress for timeout fails, and after that, or once the ring is closed,
// every lookup on the handle fails: open a new one.
func WithSharedMemory(path string, timeout time.Duration) Option {
	return func(c *config) {
		c.shmPath = path
		c.shmTimeout = timeout
	}
}

// WithTelemetry enables online latency telemetry: lock-free preallocated
// histograms recorded on every serving path (single lookups, batch calls,
// update applies, compactions) and a slow-lookup
// flight recorder. Recording costs one atomic add per sample and keeps
// every hot path at zero allocations per operation. Read the results
// through Stats().Telemetry, or scrape them as native Prometheus histogram
// families from AdminHandler's /metrics (the flight recorder dumps at
// /debug/slow).
func WithTelemetry() Option {
	return func(c *config) { c.telemetry = true }
}

// WithSlowThreshold arms the flight recorder (implying WithTelemetry):
// lookups at or above d are captured into a fixed-size lock-free ring —
// latency, table, backend, traversal depth, cache and overlay attribution —
// holding the worst recent offenders for AdminHandler's /debug/slow.
// d = 0 captures every lookup; a negative d disables capture.
func WithSlowThreshold(d time.Duration) Option {
	return func(c *config) {
		c.telemetry = true
		c.slowThreshold = d
		c.slowSet = true
	}
}

// WithFlowCache enables the lock-free flow cache with the given entry budget
// (32 bytes an entry). The cache memoises (5-tuple -> winning rule) per
// rule-list generation, which pays off on skewed traffic where few flows
// carry most packets.
func WithFlowCache(entries int) Option {
	return func(c *config) { c.opts.FlowCacheEntries = entries }
}

// WithBinth sets the leaf threshold for tree backends (0 selects the
// default).
func WithBinth(n int) Option {
	return func(c *config) { c.opts.Binth = n }
}

// WithSeed seeds stochastic backends (NeuroCuts training; 0 selects 1).
func WithSeed(seed int64) Option {
	return func(c *config) { c.opts.Seed = seed }
}

// WithTrainingBudget sets the NeuroCuts training budget in timesteps
// (neurocuts backend only; 0 selects the default).
func WithTrainingBudget(timesteps int) Option {
	return func(c *config) { c.opts.Timesteps = timesteps }
}

// WithTimeSpaceCoeff sets the NeuroCuts time-space tradeoff coefficient c
// (Equation 5 of the paper): 1 optimises classification time, 0 memory
// footprint, values between interpolate.
func WithTimeSpaceCoeff(coeff float64) Option {
	return func(c *config) {
		c.opts.TimeSpaceCoeff = coeff
		c.opts.TimeSpaceCoeffSet = true
	}
}

// WithLogReward makes NeuroCuts scale rewards with f(x) = log(x) instead
// of the linear default — the paper's choice whenever the time-space
// coefficient is below 1, keeping classification time and memory footprint
// commensurable in the combined objective.
func WithLogReward() Option {
	return func(c *config) { c.opts.LogReward = true }
}

// WithSimplePartition allows NeuroCuts the coverage-threshold partition
// action at the top node (the paper's "simple" partitioning); the default
// trains a single unpartitioned tree.
func WithSimplePartition() Option {
	return func(c *config) { c.opts.SimplePartition = true }
}
