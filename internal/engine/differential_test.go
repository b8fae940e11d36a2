package engine

import (
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/core"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/env"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/hypercuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// diffSample is one family's differential workload: a classifier, a packet
// sample and the linear-search ground truth.
type diffSample struct {
	set     *rule.Set
	family  string
	packets []rule.Packet
	want    []int // matched rule priority, -1 for no match
}

// differentialSamples builds the shared 12k-packet workload: per family,
// rule-directed packets (GenerateTrace samples inside rule boxes, so
// overlapping-rule tie-breaks are exercised) plus uniform packets (the
// no-match path). Everything is seeded, so failures reproduce.
func differentialSamples(t *testing.T) []diffSample {
	t.Helper()
	const (
		seed        = 42
		rulesPerSet = 250
		perFamily   = 6000 // 5000 directed + 1000 uniform, x2 families >= 12k packets
	)
	var samples []diffSample
	total := 0
	for _, family := range []string{"acl1", "fw1"} {
		fam, err := classbench.FamilyByName(family)
		if err != nil {
			t.Fatal(err)
		}
		set := classbench.Generate(fam, rulesPerSet, seed)
		var packets []rule.Packet
		for _, e := range classbench.GenerateTrace(set, perFamily-1000, seed+1) {
			packets = append(packets, e.Key)
		}
		for _, e := range classbench.UniformTrace(set, 1000, seed+2) {
			packets = append(packets, e.Key)
		}
		want := make([]int, len(packets))
		for i, p := range packets {
			want[i] = set.MatchIndex(p) // == matched rule's priority, or -1
		}
		total += len(packets)
		samples = append(samples, diffSample{set: set, family: family, packets: packets, want: want})
	}
	if total < 12000 {
		t.Fatalf("sample too small: %d packets", total)
	}
	return samples
}

// TestDifferentialAllBackends is the cross-backend property test: every
// registered backend must classify a large random packet sample exactly like
// reference linear search (same matched-rule priority, same no-match set).
// Because backends register themselves in the engine registry, any backend
// added in the future is picked up automatically. Tree backends serve from
// the compiled flat-array form here, so this also exercises the full
// build -> compile -> serve pipeline through the sharded Engine runtime.
func TestDifferentialAllBackends(t *testing.T) {
	samples := differentialSamples(t)

	// Keep the learned backend affordable in the unit-test budget; every
	// other backend builds deterministically from the rule set alone.
	opts := Options{Timesteps: 600, Workers: 2, Seed: 42}

	for _, backend := range realBackends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			if backend == "neurocuts" && testing.Short() {
				t.Skip("skipping learned backend in -short mode")
			}
			for _, s := range samples {
				eng, err := NewEngine(backend, s.set, opts)
				if err != nil {
					t.Fatalf("%s/%s: build: %v", backend, s.family, err)
				}
				// Classify through the sharded batch path so the differential
				// test also covers the Engine runtime, not just the backend.
				out := make([]Result, len(s.packets))
				eng.ClassifyBatch(s.packets, out)
				mismatches := 0
				for i, want := range s.want {
					got := -1
					if out[i].OK {
						got = out[i].Rule.Priority
					}
					if got != want {
						mismatches++
						if mismatches <= 5 {
							t.Errorf("%s/%s: packet %d %v: got priority %d, linear search says %d",
								backend, s.family, i, s.packets[i], got, want)
						}
					}
				}
				if mismatches > 0 {
					t.Fatalf("%s/%s: %d/%d packets diverge from linear search",
						backend, s.family, mismatches, len(s.packets))
				}
			}
		})
	}
}

// buildBackendTrees constructs each tree backend's pointer trees directly
// (bypassing the engine), so the compiled form can be compared against the
// original pointer-tree traversal it replaced.
func buildBackendTrees(t *testing.T, set *rule.Set, opts Options) map[string][]*tree.Tree {
	t.Helper()
	out := map[string][]*tree.Tree{}

	hcfg := hicuts.DefaultConfig()
	ht, err := hicuts.Build(set, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	out["hicuts"] = []*tree.Tree{ht}

	ycfg := hypercuts.DefaultConfig()
	yt, err := hypercuts.Build(set, ycfg)
	if err != nil {
		t.Fatal(err)
	}
	out["hypercuts"] = []*tree.Tree{yt}

	ec, err := efficuts.Build(set, efficuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["efficuts"] = ec.Trees

	cs, err := cutsplit.Build(set, cutsplit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["cutsplit"] = cs.Trees

	if !testing.Short() {
		cfg := core.Scaled(1000)
		cfg.MaxTimesteps = opts.Timesteps
		cfg.BatchTimesteps = maxInt(256, opts.Timesteps/10)
		cfg.Workers = opts.Workers
		cfg.Seed = opts.Seed
		cfg.Partition = env.PartitionNone
		trainer := core.NewTrainer(set, cfg)
		if _, err := trainer.Train(); err != nil {
			t.Fatal(err)
		}
		nt, _ := trainer.BestTree()
		if nt == nil {
			t.Fatal("neurocuts training produced no tree")
		}
		out["neurocuts"] = []*tree.Tree{nt}
	}
	return out
}

// TestDifferentialCompiledVsPointerTree is the three-way differential test
// for every tree backend: the compiled flat-array Lookup, the original
// pointer-tree traversal and reference linear search must agree on the full
// 12k-packet sample.
func TestDifferentialCompiledVsPointerTree(t *testing.T) {
	samples := differentialSamples(t)
	opts := Options{Timesteps: 600, Workers: 2, Seed: 42}.withDefaults()

	for _, s := range samples {
		trees := buildBackendTrees(t, s.set, opts)
		for backend, ts := range trees {
			cc, err := compiled.Compile(s.set, ts...)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", backend, s.family, err)
			}
			mismatches := 0
			for i, p := range s.packets {
				want := s.want[i]
				ptr := -1
				if r, ok := tree.ClassifyMulti(ts, p); ok {
					ptr = r.Priority
				}
				comp := -1
				if r, ok := cc.Lookup(p); ok {
					comp = r.Priority
				}
				if ptr != want || comp != want {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("%s/%s: packet %d %v: linear=%d pointer=%d compiled=%d",
							backend, s.family, i, p, want, ptr, comp)
					}
				}
			}
			if mismatches > 0 {
				t.Fatalf("%s/%s: %d/%d packets diverge across the three lookup paths",
					backend, s.family, mismatches, len(s.packets))
			}
		}
	}
}
