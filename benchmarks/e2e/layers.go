package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"neurocuts/internal/compiled"
	"neurocuts/internal/core"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/engine"
	"neurocuts/internal/env"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
	"neurocuts/internal/tree"
	"neurocuts/internal/tss"
	"neurocuts/internal/updater"
)

// buildTrees calls the backend's exported build function with the
// configuration engine's registry adapter gives it (engine/backends.go), so
// the traced phase can time tree construction and compilation apart. The
// engine exposes neither the trees nor the compiled classifier it serves.
func buildTrees(backend string, set *rule.Set, opts engine.Options) ([]*tree.Tree, error) {
	switch backend {
	case "hicuts":
		cfg := hicuts.DefaultConfig()
		cfg.Binth = opts.Binth
		t, err := hicuts.Build(set, cfg)
		return []*tree.Tree{t}, err
	case "efficuts":
		cfg := efficuts.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := efficuts.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return c.Trees, nil
	case "cutsplit":
		cfg := cutsplit.DefaultConfig()
		cfg.Binth = opts.Binth
		c, err := cutsplit.Build(set, cfg)
		if err != nil {
			return nil, err
		}
		return c.Trees, nil
	case "neurocuts":
		cfg := core.Scaled(1000)
		cfg.Binth = opts.Binth
		cfg.MaxTimesteps = opts.Timesteps
		cfg.BatchTimesteps = max(256, opts.Timesteps/10)
		cfg.Workers = opts.Workers
		cfg.Seed = opts.Seed
		cfg.Partition = env.PartitionNone
		trainer := core.NewTrainer(set, cfg)
		if _, err := trainer.Train(); err != nil {
			return nil, err
		}
		t, _ := trainer.BestTree()
		if t == nil {
			return nil, errors.New("neurocuts training produced no tree")
		}
		return []*tree.Tree{t}, nil
	}
	return nil, fmt.Errorf("no tree build for backend %q", backend)
}

// compileCell rebuilds the cell's table outside the engine, timing the
// backend build, the compile and an artifact save/load round trip, and
// returns the compiled classifier the replay's bottom layer looks up in.
// The builds are deterministic, so it is the structure the engine serves;
// compiled.worst_visits is checked against the engine's figure to prove it.
func compileCell(c *cell, r *rig, m metrics) (*compiled.Classifier, error) {
	t := time.Now()
	trees, err := buildTrees(c.backend, c.in.set, c.opts)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: build: %w", c.family, c.backend, err)
	}
	buildS := time.Since(t).Seconds()
	if c.backend == "neurocuts" {
		m["backend.neurocuts_build_s"] = buildS
	} else {
		m["backend.build_s"] = buildS
	}

	t = time.Now()
	cc, err := compiled.Compile(c.in.set, trees...)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: compile: %w", c.family, c.backend, err)
	}
	m["compiled.compile_ms"] = ms(time.Since(t))
	st := cc.Stats()
	if served := r.built.LookupCost; served != st.WorstCaseVisits {
		return nil, fmt.Errorf("%s/%s: rebuilt tree has %d worst-case visits, the engine serves %d",
			c.family, c.backend, st.WorstCaseVisits, served)
	}
	m["compiled.worst_visits"] = float64(st.WorstCaseVisits)
	m["compiled.mem_bytes"] = float64(st.MemoryBytes)
	m["compiled.nodes"] = float64(st.Nodes)
	m["compiled.leaf_refs"] = float64(st.LeafRuleRefs)

	var art bytes.Buffer
	t = time.Now()
	if err := compiled.Save(&art, cc, compiled.Metadata{Backend: c.backend, Rules: c.in.set.Len()}); err != nil {
		return nil, fmt.Errorf("%s/%s: save: %w", c.family, c.backend, err)
	}
	m["compiled.save_ms"] = ms(time.Since(t))
	m["compiled.artifact_bytes"] = float64(art.Len())
	t = time.Now()
	if _, _, err := compiled.LoadBytes(art.Bytes()); err != nil {
		return nil, fmt.Errorf("%s/%s: load: %w", c.family, c.backend, err)
	}
	m["compiled.load_ms"] = ms(time.Since(t))
	return cc, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scalarLookups times the single-packet entry points over one pass of the
// trace: compiled.LookupIndex and engine.Classify. It returns the mismatches
// against linear search; where updates flow (r.churning) the engine's
// answers can only be checked for a match.
func scalarLookups(r *rig, cc *compiled.Classifier, m metrics) (attempted, failed int) {
	keys, want, n := r.in.keys, r.in.want, len(r.in.keys)

	t := time.Now()
	for i, k := range keys {
		if cc.LookupIndex(k) != int(want[i]) {
			failed++
		}
	}
	m["compiled.scalar_ns_pkt"] = float64(time.Since(t).Nanoseconds()) / float64(n)

	t = time.Now()
	for i, k := range keys {
		switch got, ok := r.eng.Classify(k); {
		case r.churning:
			if !ok { // the catch-all is never deleted
				failed++
			}
		case ok != (want[i] >= 0) || (ok && got.ID != int(want[i])):
			failed++
		}
	}
	m["engine.single_ns"] = float64(time.Since(t).Nanoseconds()) / float64(n)
	return 2 * n, failed
}

// overlayDelta is the pending-update load updater.view_ns_pkt is measured
// at: half of update_churn's compaction threshold each way, the overlay's
// average fill between two compactions.
const overlayDelta = 128

// overlayView times updater.View.ClassifyBatch over one pass of the trace:
// the compiled base under a merged view holding overlayDelta inserted rules
// and overlayDelta tombstones. Its time less compiled.batch_ns_pkt on the
// same keys is the overlay tax at that fill. The first batches are checked
// against linear search over the merged list.
func overlayView(in *inputs, cc *compiled.Classifier, reserve []rule.Rule, m metrics) (attempted, failed int, err error) {
	idx := make([]int32, batch)
	rules := cc.Rules()
	base, err := updater.NewBaseBatch(in.set, cc.Lookup, func(ps []rule.Packet, rs []rule.Rule, oks []bool) {
		cc.LookupBatch(ps, idx[:len(ps)])
		for i, ix := range idx[:len(ps)] {
			if oks[i] = ix >= 0; oks[i] {
				rs[i] = rules[ix]
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	n := in.set.Len()
	ops := make([]updater.Op, 0, 2*overlayDelta)
	for i := 0; i < overlayDelta; i++ {
		// Deletes and insert positions are spread evenly over the table;
		// the catch-all at the end stays.
		at := i * (n - 1) / overlayDelta
		r := reserve[i%len(reserve)]
		r.ID = n + i
		ops = append(ops,
			updater.Op{Kind: updater.OpInsert, Pos: at, ID: r.ID, Rule: r},
			updater.Op{Kind: updater.OpDelete, ID: in.set.Rule(at).ID})
	}
	merged, _, err := updater.Replay(in.set, ops)
	if err != nil {
		return 0, 0, fmt.Errorf("overlay view: %w", err)
	}
	view, err := updater.NewView(base, merged)
	if err != nil {
		return 0, 0, fmt.Errorf("overlay view: %w", err)
	}

	const checked = 16 // batches compared with linear search
	rs, oks := make([]rule.Rule, batch), make([]bool, batch)
	var busy time.Duration
	for b := 0; b < in.batches(); b++ {
		t := time.Now()
		view.ClassifyBatch(in.batchKeys(b), rs, oks)
		busy += time.Since(t)
		if b >= checked {
			continue
		}
		attempted += batch
		for i, k := range in.batchKeys(b) {
			want, ok := merged.Match(k)
			if oks[i] != ok || (ok && rs[i].ID != want.ID) {
				failed++
			}
		}
	}
	m["updater.view_ns_pkt"] = float64(busy.Nanoseconds()) / float64(len(in.keys))
	m["updater.self_ns_pkt"] = max(0, m["updater.view_ns_pkt"]-m["compiled.batch_ns_pkt"])
	return attempted, failed, nil
}

// overlayMicro measures the structures under update_churn's write path on
// their own: a tss classifier the size of a full overlay, and journal
// appends with fsync off (a sandbox's fsync says nothing about a disk).
func overlayMicro(in *inputs, cc *compiled.Classifier, reserve []rule.Rule, tmp string, m metrics) (attempted, failed int, err error) {
	attempted, failed, err = overlayView(in, cc, reserve, m)
	if err != nil {
		return attempted, failed, err
	}

	const overlayRules = 256
	cls := tss.NewClassifier()
	rules := make([]rule.Rule, 0, overlayRules)
	t := time.Now()
	for i := 0; i < overlayRules; i++ {
		r := reserve[i%len(reserve)]
		r.Priority, r.ID = i, i
		if err := cls.Insert(r); err != nil {
			// Rules the tuple space cannot hold fall back to a rebuild in
			// the engine; here they are simply not part of the structure.
			continue
		}
		rules = append(rules, r)
	}
	m["tss.insert_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / overlayRules
	m["tss.tuples"] = float64(cls.Metrics().Tuples)

	oracle := rule.NewSetKeepPriorities(rules)
	n := min(8192, len(in.keys)) // at ~40 us a packet, enough
	attempted += n
	got := make([]int, n)
	t = time.Now()
	for i, k := range in.keys[:n] {
		got[i] = -1
		if r, ok := cls.Classify(k); ok {
			got[i] = r.ID
		}
	}
	m["tss.classify_ns_pkt"] = float64(time.Since(t).Nanoseconds()) / float64(n)
	for i, k := range in.keys[:n] {
		want := -1
		if r, ok := oracle.Match(k); ok {
			want = r.ID
		}
		if got[i] != want {
			failed++
		}
	}

	meta := updater.JournalMeta{Backend: "bench", BaseRules: in.set.Len(), BaseCRC: updater.Fingerprint(in.set)}
	j, _, err := updater.OpenJournal(filepath.Join(tmp, "micro.journal"), meta, false)
	if err != nil {
		return attempted, failed, fmt.Errorf("journal micro: %w", err)
	}
	const appends = 1024
	t = time.Now()
	for i := 0; i < appends; i++ {
		if err := j.Append(updater.Op{Kind: updater.OpInsert, Pos: i, ID: in.set.Len() + i, Rule: reserve[i%len(reserve)]}); err != nil {
			failed++
		}
	}
	m["updater.journal_append_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / appends
	attempted += appends
	if err := j.Close(); err != nil {
		return attempted, failed, fmt.Errorf("journal micro: %w", err)
	}
	return attempted, failed, nil
}

// frameMicro times the v2 codec alone on one batch request and its
// response: what AppendFrame and ReadFrame cost per packet, and the bytes a
// packet puts on the wire in both directions.
func frameMicro(in *inputs, m metrics) error {
	req := make([]byte, 4, 4+13*batch)
	binary.LittleEndian.PutUint32(req, batch)
	for _, k := range in.batchKeys(0) {
		req = binary.LittleEndian.AppendUint32(req, k.SrcIP)
		req = binary.LittleEndian.AppendUint32(req, k.DstIP)
		req = binary.LittleEndian.AppendUint16(req, k.SrcPort)
		req = binary.LittleEndian.AppendUint16(req, k.DstPort)
		req = append(req, k.Proto)
	}
	resp := make([]byte, 4+9*batch)
	binary.LittleEndian.PutUint32(resp, batch)
	frames := []server.Frame{{Op: server.OpBatch, Payload: req}, {Op: server.OpBatchResult, Payload: resp}}

	const rounds = 2000
	var wire []byte
	t := time.Now()
	for i := 0; i < rounds; i++ {
		wire = wire[:0]
		for _, f := range frames {
			wire = server.AppendFrame(wire, f)
		}
	}
	m["server.frame_encode_ns_pkt"] = float64(time.Since(t).Nanoseconds()) / rounds / batch
	m["server.wire_bytes_per_pkt"] = float64(len(wire)) / batch

	rd := bytes.NewReader(wire)
	t = time.Now()
	for i := 0; i < rounds; i++ {
		rd.Reset(wire)
		for range frames {
			if _, err := server.ReadFrame(rd); err != nil {
				return fmt.Errorf("frame micro: %w", err)
			}
		}
	}
	m["server.frame_decode_ns_pkt"] = float64(time.Since(t).Nanoseconds()) / rounds / batch
	return nil
}
