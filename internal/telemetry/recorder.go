package telemetry

import (
	"sort"
	"sync/atomic"
)

// The slow-lookup flight recorder: a fixed-size lock-free ring holding the
// most recent lookups that crossed the slow threshold. Writers claim a slot
// with one atomic fetch-add on the cursor and publish the entry under a
// per-slot sequence word (odd while a write is in flight, even when
// stable); every entry field is a packed atomic word, so recording is a
// handful of atomic stores, zero allocations, and clean under the race
// detector. A dump walks the ring, skips slots whose sequence changed
// mid-copy, resolves interned string IDs and sorts worst-first.

// slotWords is the per-slot word count: sequence + 7 payload words.
const slotWords = 8

// Payload word layout (after the sequence word):
//
//	1: capture time, UnixNano
//	2: latency, nanoseconds
//	3: tableID<<32 | backendID
//	4: pathID<<32 | packets
//	5: visits<<32 | ruleID     (compiled worst-case node visits, matched rule)
//	6: snapshot version
//	7: flags (cache hit, overlay winner, matched)
const (
	slotSeq = iota
	slotTime
	slotLatency
	slotTableBackend
	slotPathPackets
	slotVisitsRule
	slotVersion
	slotFlags
)

const (
	flagCacheHit = 1 << iota
	flagOverlayWinner
	flagMatched
)

// Sample is one slow lookup in its hot-path form: plain scalars and
// interned string IDs only, so recording never allocates. The exposition
// form (resolved strings, JSON tags) is SlowEntry.
type Sample struct {
	// UnixNanos is the capture time; LatencyNanos the lookup latency (for
	// batch spans, the whole span — Packets says how many packets it
	// covered).
	UnixNanos    int64
	LatencyNanos int64
	// TableID, BackendID and PathID are interned string IDs
	// (Telemetry.Intern); PathSingle/PathBatch are pre-seeded.
	TableID   uint32
	BackendID uint32
	PathID    uint32
	// Packets is the span width (1 for single lookups).
	Packets int32
	// Visits is the serving structure's worst-case lookup cost
	// (compiled.WorstCaseVisits for tree backends); DepthBucket in the
	// exposition is its power-of-two bucket.
	Visits int32
	// RuleID is the matched rule's ID (meaningful when Matched).
	RuleID  int32
	Version uint64
	// CacheHit reports the flow cache answered; OverlayWinner that the
	// winning rule came from the delta overlay rather than the compiled
	// base; Matched that any rule matched.
	CacheHit      bool
	OverlayWinner bool
	Matched       bool
}

// Recorder is the fixed-size lock-free flight-recorder ring.
type Recorder struct {
	slots    []atomic.Uint64 // len = ring size * slotWords
	mask     uint64
	cursor   atomic.Uint64
	captured atomic.Uint64
}

// NewRecorder builds a recorder with the given slot count, rounded up to a
// power of two (minimum 16).
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{slots: make([]atomic.Uint64, n*slotWords), mask: uint64(n - 1)}
}

// Size returns the ring's slot count.
func (r *Recorder) Size() int { return len(r.slots) / slotWords }

// Captured returns the total number of entries ever recorded (the ring
// keeps only the most recent Size of them).
func (r *Recorder) Captured() uint64 { return r.captured.Load() }

// Record stores one sample. Lock-free and allocation-free: one fetch-add
// claims a slot, the per-slot sequence word brackets the payload stores.
func (r *Recorder) Record(s Sample) {
	idx := (r.cursor.Add(1) - 1) & r.mask
	w := r.slots[idx*slotWords : idx*slotWords+slotWords]
	w[slotSeq].Add(1) // odd: write in flight
	w[slotTime].Store(uint64(s.UnixNanos))
	w[slotLatency].Store(uint64(s.LatencyNanos))
	w[slotTableBackend].Store(uint64(s.TableID)<<32 | uint64(s.BackendID))
	w[slotPathPackets].Store(uint64(s.PathID)<<32 | uint64(uint32(s.Packets)))
	w[slotVisitsRule].Store(uint64(uint32(s.Visits))<<32 | uint64(uint32(s.RuleID)))
	w[slotVersion].Store(s.Version)
	var flags uint64
	if s.CacheHit {
		flags |= flagCacheHit
	}
	if s.OverlayWinner {
		flags |= flagOverlayWinner
	}
	if s.Matched {
		flags |= flagMatched
	}
	w[slotFlags].Store(flags)
	w[slotSeq].Add(1) // even: stable
	r.captured.Add(1)
}

// snapshot copies every stable slot out of the ring. A slot whose sequence
// word is odd (write in flight) or changes across the copy is skipped —
// the recorder never blocks a writer for a reader.
func (r *Recorder) snapshot() []Sample {
	n := r.Size()
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		w := r.slots[i*slotWords : i*slotWords+slotWords]
		seq := w[slotSeq].Load()
		if seq == 0 || seq&1 == 1 {
			continue // never written, or mid-write
		}
		var s Sample
		s.UnixNanos = int64(w[slotTime].Load())
		s.LatencyNanos = int64(w[slotLatency].Load())
		tb := w[slotTableBackend].Load()
		s.TableID, s.BackendID = uint32(tb>>32), uint32(tb)
		pp := w[slotPathPackets].Load()
		s.PathID, s.Packets = uint32(pp>>32), int32(uint32(pp))
		vr := w[slotVisitsRule].Load()
		s.Visits, s.RuleID = int32(uint32(vr>>32)), int32(uint32(vr))
		s.Version = w[slotVersion].Load()
		flags := w[slotFlags].Load()
		s.CacheHit = flags&flagCacheHit != 0
		s.OverlayWinner = flags&flagOverlayWinner != 0
		s.Matched = flags&flagMatched != 0
		if w[slotSeq].Load() != seq {
			continue // torn: a writer lapped us mid-copy
		}
		out = append(out, s)
	}
	return out
}

// SlowEntry is the exposition form of one captured slow lookup, served as
// JSON by the admin plane's /debug/slow endpoint.
type SlowEntry struct {
	UnixNanos    int64  `json:"unix_nanos"`
	LatencyNanos int64  `json:"latency_nanos"`
	Table        string `json:"table"`
	Backend      string `json:"backend"`
	// Path is the serving path that captured the entry: "single" (engine
	// per-packet) or "batch" (one ClassifyBatch call).
	Path string `json:"path"`
	// Packets is the span width the latency covers (1 for single lookups).
	Packets int `json:"packets"`
	// Visits is the serving structure's worst-case lookup cost at capture
	// time; DepthBucket is its power-of-two bucket (bit length), the
	// coarse "how deep is this tree" axis.
	Visits      int `json:"worst_case_visits"`
	DepthBucket int `json:"depth_bucket"`
	// CacheHit: the flow cache answered. OverlayWinner: the winning rule
	// came from the delta overlay, not the compiled base. Matched: any
	// rule matched (RuleID is its ID).
	CacheHit      bool   `json:"cache_hit"`
	OverlayWinner bool   `json:"overlay_winner"`
	Matched       bool   `json:"matched"`
	RuleID        int    `json:"rule_id"`
	Version       uint64 `json:"version"`
}

// entries resolves the ring's stable slots into exposition form, sorted
// worst (highest latency) first. resolve maps interned string IDs back to
// strings.
func (r *Recorder) entries(resolve func(uint32) string) []SlowEntry {
	samples := r.snapshot()
	out := make([]SlowEntry, len(samples))
	for i, s := range samples {
		out[i] = SlowEntry{
			UnixNanos:     s.UnixNanos,
			LatencyNanos:  s.LatencyNanos,
			Table:         resolve(s.TableID),
			Backend:       resolve(s.BackendID),
			Path:          resolve(s.PathID),
			Packets:       int(s.Packets),
			Visits:        int(s.Visits),
			DepthBucket:   depthBucket(int(s.Visits)),
			CacheHit:      s.CacheHit,
			OverlayWinner: s.OverlayWinner,
			Matched:       s.Matched,
			RuleID:        int(s.RuleID),
			Version:       s.Version,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LatencyNanos > out[j].LatencyNanos })
	return out
}

// depthBucket buckets a worst-case visit count by bit length, the same
// power-of-two scheme the histograms use for nanoseconds.
func depthBucket(visits int) int {
	if visits <= 0 {
		return 0
	}
	b := 0
	for v := uint(visits); v != 0; v >>= 1 {
		b++
	}
	return b
}
