package engine

import (
	"sync/atomic"

	"neurocuts/internal/rule"
)

// FlowCache is a direct-mapped, lock-free cache of recent classification
// answers: 5-tuple -> position of the winning rule in the snapshot's rule
// list (-1 caches "no rule matches"). Real traffic is heavily skewed — a
// small number of flows carries most packets — so the common-case lookup
// becomes one hash and one 32-byte slot read, whatever the structure behind
// it costs to walk. It is the one flow cache of the serving stack: the
// engine shares one among all its callers, each dataplane loop owns one.
//
// Correctness under updates: every slot records the rules generation it was
// filled from (snapshot.rulesGen, which advances exactly when the rule list
// changes), and a hit requires it to equal the reader's. An update makes
// every older entry a miss with no invalidation pass; a compaction, which
// republishes the same list, leaves them valid.
//
// Concurrency: every slot word is atomic and a per-slot sequence word
// guards the group, as in telemetry.Recorder. A reader accepts the slot only
// if the sequence is even and unchanged across its reads, else it reports a
// miss; a writer claims the slot by CAS even->odd and drops its entry when
// it loses — an entry is a hint, never the only copy of an answer. No
// mutex, no allocation, and a single owner pays only uncontended atomics.
type FlowCache struct {
	slots []flowSlot
	mask  uint64
	// hits and misses are tallied by the callers per call (Count), not per
	// probe, so a 256-packet batch costs two adds.
	hits, misses atomic.Uint64
}

// flowSlot is one 32-byte entry, two to a cache line.
type flowSlot struct {
	seq atomic.Uint32
	idx atomic.Int32
	k0  atomic.Uint64 // SrcIP<<32 | DstIP
	k1  atomic.Uint64 // SrcPort<<24 | DstPort<<8 | Proto
	gen atomic.Uint64 // 0 (never a live generation) marks an empty slot
}

// NewFlowCache builds a cache of at least the requested number of entries
// (rounded up to a power of two), or returns nil — a valid, always-missing
// cache for Stats — when entries <= 0.
func NewFlowCache(entries int) *FlowCache {
	if entries <= 0 {
		return nil
	}
	size := 1
	for size < entries {
		size <<= 1
	}
	return &FlowCache{slots: make([]flowSlot, size), mask: uint64(size - 1)}
}

// HashPacket mixes a packet's five header fields FNV-1a style into one
// 64-bit flow hash. It is the one flow-hash function of the serving stack:
// the flow cache indexes its slots with it and the run-to-completion
// dataplane (internal/dataplane) derives its per-core demux from it, so
// "same 5-tuple" means the same thing — same cache identity, same owning
// core — everywhere.
func HashPacket(p rule.Packet) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(p.SrcIP)
	h *= prime64
	h ^= uint64(p.DstIP)
	h *= prime64
	h ^= uint64(p.SrcPort)<<16 | uint64(p.DstPort)
	h *= prime64
	h ^= uint64(p.Proto)
	h *= prime64
	return h
}

// slot returns p's slot. The index comes from the middle of the hash: FNV's
// low bits never see an input's high bits, and the demux scales the top
// bits into a core number, so within one core's cache those are no longer
// uniform.
func (c *FlowCache) slot(p rule.Packet) *flowSlot {
	return &c.slots[(HashPacket(p)>>24)&c.mask]
}

// flowKey packs a 5-tuple into the slot's two key words.
func flowKey(p rule.Packet) (k0, k1 uint64) {
	return uint64(p.SrcIP)<<32 | uint64(p.DstIP),
		uint64(p.SrcPort)<<24 | uint64(p.DstPort)<<8 | uint64(p.Proto)
}

// load is the reader's half of the slot protocol: the cached index for key
// (k0, k1) at generation gen, valid only if the sequence word was even and
// did not move across the reads.
func (s *flowSlot) load(k0, k1, gen uint64) (idx int32, hit bool) {
	seq := s.seq.Load()
	if s.k0.Load() != k0 || s.k1.Load() != k1 || s.gen.Load() != gen {
		return 0, false
	}
	idx = s.idx.Load()
	return idx, seq&1 == 0 && s.seq.Load() == seq
}

// Get returns the rule index cached for p at rules generation gen (-1: no
// rule matches) and whether the probe hit. It does not count the probe.
func (c *FlowCache) Get(p rule.Packet, gen uint64) (idx int32, hit bool) {
	k0, k1 := flowKey(p)
	return c.slot(p).load(k0, k1, gen)
}

// FlowMiss is the index GetBatch reports for a packet the cache could not
// answer.
const FlowMiss int32 = -2

// GetBatch probes every packet of ps, leaving in idx[i] what Get would
// return for ps[i] or FlowMiss. Probing a batch in one tight loop, apart
// from whatever the caller does with the answers, lets the slot reads of
// neighbouring packets overlap.
func (c *FlowCache) GetBatch(ps []rule.Packet, gen uint64, idx []int32) {
	idx = idx[:len(ps)]
	for i := range ps {
		k0, k1 := flowKey(ps[i])
		ix, hit := c.slot(ps[i]).load(k0, k1, gen)
		if !hit {
			ix = FlowMiss
		}
		idx[i] = ix
	}
}

// Put caches idx as p's answer at rules generation gen, evicting whatever
// held the slot; it drops the entry when another writer holds the slot.
func (c *FlowCache) Put(p rule.Packet, gen uint64, idx int32) {
	s := c.slot(p)
	k0, k1 := flowKey(p)
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.k0.Store(k0)
	s.k1.Store(k1)
	s.gen.Store(gen)
	s.idx.Store(idx)
	s.seq.Store(seq + 2)
}

// Count adds one call's probe outcomes to the cumulative counters.
func (c *FlowCache) Count(hits, misses int) {
	if hits != 0 {
		c.hits.Add(uint64(hits))
	}
	if misses != 0 {
		c.misses.Add(uint64(misses))
	}
}

// Stats reports the cumulative hit and miss counters (zeros for a nil
// cache).
func (c *FlowCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// CacheStats reports the engine flow cache's cumulative hit and miss
// counters, or zeros when the engine runs without a cache.
func (e *Engine) CacheStats() (hits, misses uint64) { return e.cache.Stats() }
