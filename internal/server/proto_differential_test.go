// This differential test lives in the external test package: it drives the
// server through pkg/classifier, whose admin plane imports internal/server,
// so an in-package test would be an import cycle.
package server_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
	"neurocuts/pkg/classifier"
)

// TestProtocolDifferential is the wire ground-truth check: the same
// 12k-packet trace per table must produce identical matches through
//
//  1. the framed wire protocol, and
//  2. an in-process pkg/classifier opened over the same rules and backend,
//
// for two tables served concurrently by one multi-table server. Every
// backend is exact (it agrees with linear search), so any divergence is a
// protocol bug: encoding, framing, table routing or response ordering.
func TestProtocolDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("12k-packet differential per table is not short")
	}
	const tracePackets = 12000

	type tableSpec struct {
		name    string
		family  string
		backend string
		size    int
	}
	specs := []tableSpec{
		{name: "acl", family: "acl1", backend: "hicuts", size: 400},
		{name: "fw", family: "fw2", backend: "linear", size: 300},
	}

	// One multi-table server carries all tables.
	tabs := engine.NewTables()
	defer tabs.CloseAll()
	sets := map[string]*rule.Set{}
	for _, spec := range specs {
		fam, err := classbench.FamilyByName(spec.family)
		if err != nil {
			t.Fatal(err)
		}
		set := classbench.Generate(fam, spec.size, 1)
		sets[spec.name] = set
		eng, err := engine.NewEngine(spec.backend, set, engine.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tabs.Create(spec.name, eng); err != nil {
			t.Fatal(err)
		}
	}
	multi := server.NewTables(tabs)
	multiAddr, err := multi.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { multi.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(spec tableSpec) {
			defer wg.Done()
			set := sets[spec.name]
			trace := classbench.GenerateTrace(set, tracePackets, 42)
			keys := make([]rule.Packet, len(trace))
			for i, e := range trace {
				keys[i] = e.Key
			}

			// In-process SDK classifier over the same rules and backend.
			sdk, err := classifier.Open(set.Clone(), classifier.WithBackend(spec.backend), classifier.WithShards(2))
			if err != nil {
				t.Errorf("%s: sdk open: %v", spec.name, err)
				return
			}
			defer sdk.Close()
			sdkResults, err := sdk.ClassifyBatch(ctx, keys)
			if err != nil {
				t.Errorf("%s: sdk batch: %v", spec.name, err)
				return
			}

			// The wire protocol against the shared multi-table server,
			// addressed by table.
			v2c, err := server.DialV2(ctx, multiAddr.String())
			if err != nil {
				t.Errorf("%s: v2 dial: %v", spec.name, err)
				return
			}
			defer v2c.Close()
			id, err := v2c.ResolveTable(spec.name)
			if err != nil {
				t.Errorf("%s: resolve: %v", spec.name, err)
				return
			}
			v2c.UseTable(id)
			v2Results, err := v2c.ClassifyBatch(keys)
			if err != nil {
				t.Errorf("%s: v2 batch: %v", spec.name, err)
				return
			}

			if len(v2Results) != len(keys) || len(sdkResults) != len(keys) {
				t.Errorf("%s: result count mismatch: v2=%d sdk=%d want %d",
					spec.name, len(v2Results), len(sdkResults), len(keys))
				return
			}
			mismatches := 0
			for i := range keys {
				want, wantOK := set.Match(keys[i])
				for path, got := range map[string]engine.Result{
					"v2": v2Results[i], "sdk": sdkResults[i],
				} {
					if got.OK != wantOK || (wantOK && got.Rule.Priority != want.Priority) {
						mismatches++
						if mismatches <= 5 {
							t.Errorf("%s/%s packet %d (%v): got (prio=%d ok=%v) want (prio=%d ok=%v)",
								spec.name, path, i, keys[i], got.Rule.Priority, got.OK, want.Priority, wantOK)
						}
					}
				}
			}
			if mismatches > 0 {
				t.Errorf("%s: %d total mismatches across protocols", spec.name, mismatches)
			}
		}(spec)
	}
	wg.Wait()
}
