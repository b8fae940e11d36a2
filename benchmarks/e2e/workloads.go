package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/dataplane"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
)

// batch is the packets per classify call on every workload.
const batch = 256

// tableSeed generates every rule table and trains every NeuroCuts policy.
// The tables are the deployed configuration, not the traffic: -seed varies
// the packets (and the update stream) offered to the same tables, so runs
// at different seeds measure the same structures and the exact counts
// (worst_visits, bytes_per_rule) repeat. A table that changed with the seed
// moved pps by ~8 % between seeds, more than any bound worth gating on.
const tableSeed = 1

// scale sizes a run: the full benchmark or the -smoke variant the tests use.
type scale struct {
	rules       int // tree_cold, flow_zipf, ingest_dataplane, update_churn, paper_grid tables
	wireRules   int // wire_v2, wire_shm tables
	traceN      int // GenerateTrace length
	gridTraceN  int // per-family trace length on paper_grid
	zipfN       int // ZipfTrace length
	zipfFlows   int // distinct flows in the Zipf population
	cacheSize   int // flow cache entries (engine cache and dataplane per-core cache)
	ncTimesteps int // NeuroCuts training budget
	reserve     int // distinct rules update_churn inserts, round and round
}

var (
	fullScale = scale{rules: 10000, wireRules: 1000, traceN: 65536, gridTraceN: 16384,
		zipfN: 262144, zipfFlows: 8192, cacheSize: 16384, ncTimesteps: 1500, reserve: 64}
	smokeScale = scale{rules: 1000, wireRules: 1000, traceN: 8192, gridTraceN: 4096,
		zipfN: 16384, zipfFlows: 1024, cacheSize: 2048, ncTimesteps: 100, reserve: 64}
)

// inputs are what one cell is offered: a rule table, a trace over it and the
// linear-search answer for every packet of the trace.
type inputs struct {
	family string
	set    *rule.Set
	trace  []packet.TraceEntry
	keys   []rule.Packet
	want   []int32 // index into set.Rules() of the winning rule, -1 for none
}

func newInputs(family string, rules int, gen func(*rule.Set) []packet.TraceEntry) (*inputs, error) {
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	in := &inputs{family: family, set: classbench.Generate(fam, rules, tableSeed)}
	in.trace = gen(in.set)
	in.trace = in.trace[:len(in.trace)/batch*batch]
	if len(in.trace) == 0 {
		return nil, fmt.Errorf("%s: trace shorter than one batch", family)
	}
	in.keys = make([]rule.Packet, len(in.trace))
	in.want = make([]int32, len(in.trace))
	for i, e := range in.trace {
		in.keys[i] = e.Key
		in.want[i] = int32(e.MatchRule)
	}
	return in, nil
}

func (in *inputs) batches() int { return len(in.keys) / batch }

func (in *inputs) batchKeys(b int) []rule.Packet { return in.keys[b*batch : (b+1)*batch] }

// checkResults counts the results of batch b that disagree with linear
// search. Generated tables carry ID == index, and the wire transports return
// only ID and priority, so ID is what every path can be compared on.
func (in *inputs) checkResults(b int, out []engine.Result) int {
	bad := 0
	for i, w := range in.want[b*batch : (b+1)*batch] {
		switch r := &out[i]; {
		case w < 0:
			if r.OK {
				bad++
			}
		case !r.OK || r.Rule.ID != int(w):
			bad++
		}
	}
	return bad
}

func (in *inputs) checkIdx(b int, idx []int32) int {
	bad := 0
	for i, w := range in.want[b*batch : (b+1)*batch] {
		if idx[i] != w {
			bad++
		}
	}
	return bad
}

// layer is one boundary of the traced replay: a call into a package's
// exported function on batch b of the trace, and the check of what it left.
type layer struct {
	name       string // package the call enters; the span name
	spanMetric string // per-layer metric for the span time, ns/packet
	selfMetric string // per-layer metric for the self time ("" = none)
	call       func(b int) error
	check      func(b int) int
	// cache, when set, reads the hit/miss counters of the flow cache that
	// sits between this layer and the one below; the replay turns their
	// delta into the share of packets handed down.
	cache func() (hits, misses uint64)
	// stage marks a sequential stage beside the chain (see selfTimes).
	stage bool
}

// rig is one cell's system under test, built by set-up and driven from
// outside through step.
type rig struct {
	in  *inputs
	eng *engine.Engine
	out []engine.Result
	// built is the engine's cost summary as built, before any update: the
	// exact counts (worst_visits, bytes_per_rule) are the table's.
	built engine.Metrics
	// churning says updates flow beside the lookups, so the trace's
	// precomputed answers no longer decide which rule should win.
	churning bool
	// updateSamples is how many updates final found inside the windows.
	updateSamples int

	// step runs batch b through the whole path and leaves the results where
	// verify finds them; only step is timed.
	step   func(b int) error
	verify func(b int) int
	// layers lists the traced replay's layers bottom-up, above the compiled
	// classifier cc the trace kit built over the same table.
	layers func(cc *compiled.Classifier) ([]layer, error)
	// begin and end bracket the measured windows: begin snapshots the
	// layers' counters, end turns the deltas into per-layer metrics.
	begin func()
	end   func(m metrics, t0, t1 time.Time)
	// start and stop bracket everything measured, for load that runs beside
	// the closed loop. final runs after stop: it reports that load over the
	// measured windows [t0, t1] and makes the quiescent oracle pass.
	start func()
	stop  func()
	final func(m metrics, t0, t1 time.Time) (attempted, failed int)
	// micro measures, after the replay, structures of the workload's path
	// that no layer call isolates.
	micro func(m metrics, cc *compiled.Classifier, tmp string) (attempted, failed int, err error)
	close func()
}

// cell is one (table, backend) point of a workload; all workloads but
// paper_grid have one.
type cell struct {
	family, backend string
	in              *inputs
	// opts are the engine options the cell builds with; the traced phase
	// rebuilds the trees from the same ones.
	opts  engine.Options
	build func() (*rig, error)
}

type workload struct {
	name  string
	why   string
	cells func(sc scale, seed int64, tmp string) ([]*cell, error)
	// setupReps is the least number of times set-up runs (see plan).
	setupReps int
	// windows is how many windows the measuring time is cut into: many
	// short ones, so that some of them are quiet moments of the machine.
	windows int
	// quietAt is how far in from the best window the reported one lies, as
	// a share of the windows; 0 means quietEnd (see quiet). update_churn
	// reports its upper quartile: its fastest eighth are the 0.3 s after
	// each compaction, when the overlay is empty and lookups run at three
	// times the speed they have for the rest of the cycle, and below them
	// lies a plateau whose upper quartile repeated within 12 % where its
	// median repeated within 22 %.
	quietAt float64
}

func (sc scale) treeOpts(o engine.Options) engine.Options {
	o.Timesteps, o.Workers, o.Seed = sc.ncTimesteps, 2, tableSeed
	return o
}

var workloads = []workload{
	{
		name: "tree_cold", setupReps: 5, windows: 100,
		why: "acl1 10k cutsplit, cache off, direct engine.ClassifyBatch: every packet walks the compiled forest, so a descent or leaf-scan change shows here alone",
		cells: func(sc scale, seed int64, _ string) ([]*cell, error) {
			in, err := newInputs("acl1", sc.rules, func(s *rule.Set) []packet.TraceEntry {
				return classbench.GenerateTrace(s, sc.traceN, seed)
			})
			if err != nil {
				return nil, err
			}
			return []*cell{directCell(in, "cutsplit", sc.treeOpts(engine.Options{Shards: 1}))}, nil
		},
	},
	{
		name: "flow_zipf", setupReps: 5, windows: 100,
		why: "same table, Zipf(1.1) over 8192 flows, 2 shards + 16k-entry flow cache: the worker pool and sharded cache do the work, compiled sees only misses",
		cells: func(sc scale, seed int64, _ string) ([]*cell, error) {
			in, err := zipfInputs(sc, seed)
			if err != nil {
				return nil, err
			}
			return []*cell{directCell(in, "cutsplit", sc.treeOpts(engine.Options{Shards: 2, FlowCacheEntries: sc.cacheSize}))}, nil
		},
	},
	{
		name: "ingest_dataplane", setupReps: 5, windows: 100,
		why: "the same Zipf traffic as a pcap through PcapReader.ReadBatch into the 2-core run-to-completion dataplane: decode, demux, rings and the private cache, paired with flow_zipf",
		cells: func(sc scale, seed int64, _ string) ([]*cell, error) {
			in, err := zipfInputs(sc, seed)
			if err != nil {
				return nil, err
			}
			return []*cell{dataplaneCell(in, "cutsplit", sc)}, nil
		},
	},
	{
		name: "wire_v2", setupReps: 5, windows: 100,
		why: "fw1 1k hicuts (cheap lookups, the smallest-packet case) over one ClientV2 connection on host loopback: frame encode/CRC/decode and socket syscalls dominate",
		cells: func(sc scale, seed int64, _ string) ([]*cell, error) {
			in, err := wireInputs(sc, seed)
			if err != nil {
				return nil, err
			}
			return []*cell{wireV2Cell(in, "hicuts")}, nil
		},
	},
	{
		name: "wire_shm", setupReps: 5, windows: 100,
		why: "the wire_v2 table and trace through the shared-memory descriptor ring in one process: the second transport, so merging the two cannot quietly cost either",
		cells: func(sc scale, seed int64, tmp string) ([]*cell, error) {
			in, err := wireInputs(sc, seed)
			if err != nil {
				return nil, err
			}
			return []*cell{shmCell(in, "hicuts", tmp)}, nil
		},
	},
	{
		name: "update_churn", setupReps: 5, windows: 100, quietAt: 0.25,
		why: "tree_cold with online updates: closed-loop lookups beside an open-loop 100/s insert/delete stream, so overlay probe, journal append and compaction show against reads",
		cells: func(sc scale, seed int64, tmp string) ([]*cell, error) {
			in, err := newInputs("acl1", sc.rules, func(s *rule.Set) []packet.TraceEntry {
				return classbench.GenerateTrace(s, sc.traceN, seed)
			})
			if err != nil {
				return nil, err
			}
			return []*cell{churnCell(in, "cutsplit", sc, seed, tmp)}, nil
		},
	},
	{
		name: "paper_grid", setupReps: 1, windows: 5,
		why: "acl1/fw1/ipc1 x hicuts/efficuts/cutsplit/neurocuts at 10k rules, the paper's Fig. 8/9 axes: build and training time, worst-case visits and bytes per rule",
		cells: func(sc scale, seed int64, _ string) ([]*cell, error) {
			var cells []*cell
			for _, fam := range gridFamilies {
				in, err := newInputs(fam, sc.rules, func(s *rule.Set) []packet.TraceEntry {
					return classbench.GenerateTrace(s, sc.gridTraceN, seed)
				})
				if err != nil {
					return nil, err
				}
				for _, be := range gridBackends {
					cells = append(cells, directCell(in, be, sc.treeOpts(engine.Options{Shards: 1})))
				}
			}
			return cells, nil
		},
	},
}

var (
	gridFamilies = []string{"acl1", "fw1", "ipc1"}
	gridBackends = []string{"hicuts", "efficuts", "cutsplit", "neurocuts"}
)

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func zipfInputs(sc scale, seed int64) (*inputs, error) {
	return newInputs("acl1", sc.rules, func(s *rule.Set) []packet.TraceEntry {
		return classbench.ZipfTrace(s, sc.zipfN, sc.zipfFlows, 1.1, seed)
	})
}

func wireInputs(sc scale, seed int64) (*inputs, error) {
	return newInputs("fw1", sc.wireRules, func(s *rule.Set) []packet.TraceEntry {
		return classbench.GenerateTrace(s, sc.traceN, seed)
	})
}

// newRig builds the engine every rig sits on and fills in the parts all
// rigs share; the caller layers its transport over it.
func newRig(in *inputs, backend string, opts engine.Options) (*rig, error) {
	eng, err := engine.NewEngine(backend, in.set, opts)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", in.family, backend, err)
	}
	r := &rig{in: in, eng: eng, out: make([]engine.Result, batch), built: eng.Metrics()}
	r.step = func(b int) error {
		eng.ClassifyBatch(in.batchKeys(b), r.out)
		return nil
	}
	r.verify = func(b int) int { return in.checkResults(b, r.out) }
	r.close = eng.Close
	r.layers = func(cc *compiled.Classifier) ([]layer, error) {
		return []layer{compiledLayer(in, cc), r.engineLayer()}, nil
	}
	var hits0, misses0 uint64
	r.begin = func() { hits0, misses0 = eng.CacheStats() }
	r.end = func(m metrics, _, _ time.Time) {
		hits, misses := eng.CacheStats()
		m["engine.cache_hit_ratio"] = ratio(hits-hits0, hits-hits0+misses-misses0)
	}
	return r, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func compiledLayer(in *inputs, cc *compiled.Classifier) layer {
	idx := make([]int32, batch)
	return layer{
		name: "compiled", spanMetric: "compiled.batch_ns_pkt", selfMetric: "compiled.self_ns_pkt",
		call: func(b int) error {
			cc.LookupBatch(in.batchKeys(b), idx)
			return nil
		},
		check: func(b int) int { return in.checkIdx(b, idx) },
	}
}

func (r *rig) engineLayer() layer {
	return layer{
		name: "engine", spanMetric: "engine.batch_ns_pkt", selfMetric: "engine.self_ns_pkt",
		call: func(b int) error {
			r.eng.ClassifyBatch(r.in.batchKeys(b), r.out)
			return nil
		},
		check: func(b int) int { return r.in.checkResults(b, r.out) },
		cache: r.eng.CacheStats,
	}
}

// directCell drives engine.ClassifyBatch with no transport in front.
func directCell(in *inputs, backend string, opts engine.Options) *cell {
	return &cell{family: in.family, backend: backend, in: in, opts: opts,
		build: func() (*rig, error) { return newRig(in, backend, opts) }}
}

// dataplaneCell replays the trace as an in-memory pcap through the
// dataplane, the `classifyd -pcap -cores 2` shape.
func dataplaneCell(in *inputs, backend string, sc scale) *cell {
	// PcapReader yields canonical keys (ports zeroed for port-less
	// protocols), so the oracle answers for those.
	canon := make(map[rule.Packet]int32)
	for i, k := range in.keys {
		ck := iface.CanonicalKey(k)
		if ck == k {
			continue
		}
		w, ok := canon[ck]
		if !ok {
			w = int32(in.set.MatchIndex(ck))
			canon[ck] = w
		}
		in.keys[i], in.want[i] = ck, w
	}
	var pcap bytes.Buffer
	pcapErr := iface.WriteTracePcap(&pcap, in.trace)

	opts := sc.treeOpts(engine.Options{})
	return &cell{family: in.family, backend: backend, in: in, opts: opts, build: func() (*rig, error) {
		if pcapErr != nil {
			return nil, fmt.Errorf("render pcap: %w", pcapErr)
		}
		r, err := newRig(in, backend, opts)
		if err != nil {
			return nil, err
		}
		dp, err := dataplane.Attach(r.eng, dataplane.Config{Cores: 2, CacheEntries: sc.cacheSize})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("attach dataplane: %w", err)
		}
		var rd *iface.PcapReader
		var skipped uint64
		buf := make([]rule.Packet, batch)
		// read decodes batch b; the reader is rewound at the top of each
		// trace pass, which is the only allocation on the path.
		read := func(b int) error {
			if b == 0 {
				if rd != nil {
					skipped += rd.Stats().Skipped
				}
				next, err := iface.NewPcapReader(bytes.NewReader(pcap.Bytes()), iface.PcapConfig{})
				if err != nil {
					return err
				}
				rd = next
			}
			n, err := rd.ReadBatch(buf)
			if err != nil && !errors.Is(err, io.EOF) {
				return err
			}
			if n != batch {
				return fmt.Errorf("pcap batch %d: decoded %d of %d packets", b, n, batch)
			}
			return nil
		}
		r.step = func(b int) error {
			if err := read(b); err != nil {
				return err
			}
			dp.ClassifyBatch(buf, r.out)
			return nil
		}
		r.layers = func(cc *compiled.Classifier) ([]layer, error) {
			view := r.eng.CurrentView()
			return []layer{
				compiledLayer(in, cc),
				{
					name: "engine", spanMetric: "engine.batch_ns_pkt", selfMetric: "engine.self_ns_pkt",
					call: func(b int) error {
						view.ClassifyBatch(in.batchKeys(b), r.out)
						return nil
					},
					check: func(b int) int { return in.checkResults(b, r.out) },
				},
				{
					name: "dataplane", spanMetric: "dataplane.batch_ns_pkt", selfMetric: "dataplane.self_ns_pkt",
					call: func(b int) error {
						dp.ClassifyBatch(in.batchKeys(b), r.out)
						return nil
					},
					check: func(b int) int { return in.checkResults(b, r.out) },
					cache: func() (uint64, uint64) {
						st := dp.Stats()
						return st.CacheHits, st.CacheMisses
					},
				},
				{
					name: "iface.pcap", spanMetric: "iface.pcap_decode_ns_pkt", stage: true,
					call: read,
					check: func(b int) int {
						bad := 0
						for i, k := range in.batchKeys(b) {
							if buf[i] != k {
								bad++
							}
						}
						return bad
					},
				},
			}, nil
		}
		var st0 dataplane.Stats
		r.begin = func() { st0 = dp.Stats() }
		r.end = func(m metrics, _, _ time.Time) {
			st := dp.Stats()
			hits, misses := st.CacheHits-st0.CacheHits, st.CacheMisses-st0.CacheMisses
			m["dataplane.cache_hit_ratio"] = ratio(hits, hits+misses)
			var parks uint64
			var high int
			var lag uint64
			for i, c := range st.PerCore {
				parks += c.Parks - st0.PerCore[i].Parks
				high = max(high, c.RingHighWatermark)
				lag = max(lag, c.EpochLag)
			}
			m["dataplane.parks_per_batch"] = float64(parks) / float64(max(st.Batches-st0.Batches, 1))
			m["dataplane.ring_high_watermark"] = float64(high)
			m["dataplane.epoch_lag"] = float64(lag)
			if rd != nil {
				m["iface.pcap_skipped"] = float64(skipped + rd.Stats().Skipped)
			}
		}
		return r, nil
	}}
}

// wireV2Cell serves the engine over the v2 binary protocol on host loopback
// and drives it through one client connection.
func wireV2Cell(in *inputs, backend string) *cell {
	opts := engine.Options{Shards: 1}
	return &cell{family: in.family, backend: backend, in: in, opts: opts, build: func() (*rig, error) {
		r, err := newRig(in, backend, opts)
		if err != nil {
			return nil, err
		}
		srv := server.New(r.eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		cl, err := server.DialV2(ctx, addr.String())
		cancel()
		if err != nil {
			srv.Close()
			r.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		engClose := r.close
		r.close = func() {
			cl.Close()
			srv.Close()
			engClose()
		}
		var res []engine.Result
		call := func(b int) error {
			var err error
			res, err = cl.ClassifyBatch(in.batchKeys(b))
			if err == nil && len(res) != batch {
				err = fmt.Errorf("v2 batch %d: %d results for %d packets", b, len(res), batch)
			}
			return err
		}
		check := func(b int) int { return in.checkResults(b, res) }
		r.step, r.verify = call, check
		r.layers = func(cc *compiled.Classifier) ([]layer, error) {
			return []layer{compiledLayer(in, cc), r.engineLayer(),
				{name: "server", spanMetric: "server.v2_batch_ns_pkt", selfMetric: "server.self_ns_pkt", call: call, check: check},
			}, nil
		}
		r.micro = func(m metrics, _ *compiled.Classifier, _ string) (int, int, error) { return 0, 0, frameMicro(in, m) }
		r.end = func(m metrics, _, _ time.Time) {
			// Ping is the empty-payload round trip: the per-call floor that
			// framing and the two socket hops put under every batch.
			rtts := make([]float64, 0, 2000)
			for i := 0; i < cap(rtts); i++ {
				t := time.Now()
				if cl.Ping() != nil {
					return
				}
				rtts = append(rtts, float64(time.Since(t).Nanoseconds())/1e3)
			}
			m["server.ping_rtt_us"] = median(rtts)
		}
		return r, nil
	}}
}

// shmCell serves the engine over the shared-memory descriptor ring; server
// loop and client live in this one process.
func shmCell(in *inputs, backend, tmp string) *cell {
	opts := engine.Options{Shards: 1}
	return &cell{family: in.family, backend: backend, in: in, opts: opts, build: func() (*rig, error) {
		r, err := newRig(in, backend, opts)
		if err != nil {
			return nil, err
		}
		srv, err := iface.NewShmServer(filepath.Join(tmp, "e2e.ring"), r.eng, iface.ShmServerConfig{})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("shm server: %w", err)
		}
		cl, err := iface.OpenShmClient(srv.Path(), iface.ShmClientConfig{})
		if err != nil {
			srv.Close()
			r.close()
			return nil, fmt.Errorf("shm client: %w", err)
		}
		engClose := r.close
		r.close = func() {
			cl.Close()
			srv.Close()
			engClose()
		}
		call := func(b int) error { return cl.ClassifyBatchInto(in.batchKeys(b), r.out) }
		r.step = call
		r.layers = func(cc *compiled.Classifier) ([]layer, error) {
			return []layer{compiledLayer(in, cc), r.engineLayer(),
				{name: "iface.shm", spanMetric: "iface.shm_batch_ns_pkt", selfMetric: "iface.shm_self_ns_pkt", call: call, check: r.verify},
			}, nil
		}
		var st0 iface.ShmServerStats
		r.begin = func() { st0 = srv.Stats() }
		r.end = func(m metrics, _, _ time.Time) {
			st := srv.Stats()
			m["iface.shm_pkts_per_server_batch"] = float64(st.Packets-st0.Packets) / float64(max(st.Batches-st0.Batches, 1))
		}
		return r, nil
	}}
}

// updateRate is the open-loop update stream's rate, per second.
const updateRate = 100

// churnLive is how many inserted rules update_churn keeps live. Each delete
// takes the oldest, inserted 2*churnLive updates earlier: more than a
// compaction threshold ago, so it has been folded into the base and the
// delete is a tombstone. Every update then adds one pending entry, the
// overlay fills to the threshold every 2.56 s, and background compaction is
// part of the workload. (With few rules live the delete removes a rule still
// in the overlay, pending never grows and the compactor never runs.)
const churnLive = 384

// update is one Insert or Delete of the churn stream. Times are nanoseconds
// since the stream started.
type update struct {
	due, start, ack int64
	insert          bool
}

// churnCell is tree_cold's engine with the online-update subsystem on and an
// updater goroutine issuing paced inserts and deletes beside the lookups.
func churnCell(in *inputs, backend string, sc scale, seed int64, tmp string) *cell {
	fam, _ := classbench.FamilyByName(in.family)
	// The reserve is configuration like the table, and short: which rules sit
	// in the overlay decides how many tuples a lookup probes (167k-275k pps
	// across reserves drawn from the seed; 45k-265k from second to second
	// within a run as a 4096-rule reserve went by), so a few rules used round
	// and round keep the overlay's make-up, and the workload's speed, the
	// same all run. The seed picks where they are inserted. The last
	// generated rule is the catch-all, which is no realistic update.
	reserve := classbench.Generate(fam, sc.reserve+1, tableSeed+1).Rules()[:sc.reserve]

	opts := sc.treeOpts(engine.Options{Shards: 1, OnlineUpdates: true, CompactThreshold: 256, JournalNoSync: true})
	builds := 0
	return &cell{family: in.family, backend: backend, in: in, opts: opts, build: func() (*rig, error) {
		// A journal left by an earlier build would be replayed into this one.
		builds++
		opts := opts
		opts.JournalPath = filepath.Join(tmp, fmt.Sprintf("churn-%d.journal", builds))
		r, err := newRig(in, backend, opts)
		if err != nil {
			return nil, err
		}
		eng := r.eng
		r.churning = true
		// Inserted rules change which rule wins, so the static oracle does
		// not apply while updates flow; a miss is still always wrong,
		// because the catch-all is never deleted.
		r.verify = func(int) int {
			bad := 0
			for i := range r.out {
				if !r.out[i].OK {
					bad++
				}
			}
			return bad
		}

		// Set-up brings the table to its steady state: churnLive rules
		// inserted and the compaction they trigger finished.
		rng := rand.New(rand.NewSource(seed))
		live := make([]int, 0, churnLive+1) // inserted rule IDs, oldest first
		insert := func(k int) error {
			res, err := eng.Insert(rng.Intn(in.set.Len()), reserve[k%len(reserve)])
			if err == nil {
				live = append(live, res.ID)
			}
			return err
		}
		for k := 0; k < churnLive; k++ {
			if err := insert(k); err != nil {
				r.close()
				return nil, fmt.Errorf("pre-populate: %w", err)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			st := eng.UpdaterStats()
			if !st.Compacting && st.OverlayRules+st.Tombstones < st.CompactThreshold {
				break
			}
			if time.Now().After(deadline) {
				r.close()
				return nil, fmt.Errorf("pre-populate: compaction did not finish: %+v", st)
			}
		}

		var (
			updates  []update
			failed   int
			stopCh   = make(chan struct{})
			done     = make(chan struct{})
			streamT0 time.Time
		)
		r.start = func() {
			streamT0 = time.Now()
			go func() {
				defer close(done)
				const interval = int64(time.Second) / updateRate
				timer := time.NewTimer(0)
				defer timer.Stop()
				for k := 0; ; k++ {
					due := int64(k) * interval
					timer.Reset(time.Duration(due) - time.Since(streamT0))
					select {
					case <-stopCh:
						return
					case <-timer.C:
					}
					u := update{due: due, start: int64(time.Since(streamT0)), insert: k%2 == 0}
					var err error
					if u.insert {
						err = insert(churnLive + k)
					} else {
						_, err = eng.Delete(live[0])
						live = live[1:]
					}
					u.ack = int64(time.Since(streamT0))
					if err != nil {
						failed++
					}
					updates = append(updates, u)
				}
			}()
		}
		r.stop = func() {
			close(stopCh)
			<-done
		}
		// The live overlay's fill moves with the update stream, so the chain
		// is compiled -> engine and engine.self_ns_pkt carries the overlay
		// probe; overlayMicro prices the probe at a fixed fill beside it.
		r.layers = func(cc *compiled.Classifier) ([]layer, error) {
			return []layer{compiledLayer(in, cc), {
				name: "engine", spanMetric: "engine.batch_ns_pkt", selfMetric: "engine.self_ns_pkt",
				call: func(b int) error {
					eng.ClassifyBatch(in.batchKeys(b), r.out)
					return nil
				},
				check: r.verify,
			}}, nil
		}
		r.micro = func(m metrics, cc *compiled.Classifier, tmp string) (int, int, error) {
			return overlayMicro(in, cc, reserve, tmp, m)
		}
		var st0 engine.UpdaterStats
		r.begin = func() { st0 = eng.UpdaterStats() }
		r.end = func(m metrics, t0, t1 time.Time) {
			st := eng.UpdaterStats()
			m["engine.compactions"] = float64(st.Compactions - st0.Compactions)
			m["engine.compact_ms"] = float64(st.LastCompactNanos) / 1e6
			m["updater.overlay_rules"] = float64(st.OverlayRules)
			m["updater.tombstones"] = float64(st.Tombstones)
			m["updater.journal_bytes"] = float64(st.JournalBytes)
		}
		// final runs after stop, so the updater goroutine's state is safe to
		// read: it reports the updates that fell due inside the measured
		// windows and checks a quiescent pass against linear search over the
		// rule list the engine ended on.
		r.final = func(m metrics, t0, t1 time.Time) (attempted, bad int) {
			lo, hi := int64(t0.Sub(streamT0)), int64(t1.Sub(streamT0))
			var fromDue, late, insertUs, deleteUs []float64
			for _, u := range updates {
				if u.due < lo || u.due > hi {
					continue
				}
				fromDue = append(fromDue, float64(u.ack-u.due)/1e3)
				late = append(late, float64(u.start-u.due)/1e3)
				if service := float64(u.ack-u.start) / 1e3; u.insert {
					insertUs = append(insertUs, service)
				} else {
					deleteUs = append(deleteUs, service)
				}
			}
			sort.Float64s(fromDue)
			m["update_p50_us"] = percentile(fromDue, 0.50)
			m["update_p99_us"] = percentile(fromDue, 0.99)
			m["engine.insert_us"] = median(insertUs)
			m["engine.delete_us"] = median(deleteUs)
			m["bench.pacer_late_us"] = median(late)
			r.updateSamples = len(fromDue)

			set := eng.Rules()
			n := min(16, in.batches())
			for b := 0; b < n; b++ {
				eng.ClassifyBatch(in.batchKeys(b), r.out)
				for i, k := range in.batchKeys(b) {
					want, ok := set.Match(k)
					if got := r.out[i]; got.OK != ok || (ok && got.Rule.ID != want.ID) {
						bad++
					}
				}
			}
			return n*batch + len(updates), bad + failed
		}
		return r, nil
	}}
}
