package telemetry

import (
	"testing"
)

func TestTelemetryFamilies(t *testing.T) {
	tel := New()
	tel.Lookup.RecordNanos(0, 100)
	tel.LookupBatch.RecordNanos(1, 2000)
	tel.UpdateInsert.RecordNanos(0, 40000)
	tel.ServerV2.RecordNanos(3, 500)

	fams := tel.Families()
	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"neurocuts_lookup_latency_seconds",
		"neurocuts_update_latency_seconds",
		"neurocuts_server_request_latency_seconds",
	} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("family %s missing from Families()", want)
		}
	}
	lookup := byName["neurocuts_lookup_latency_seconds"]
	if len(lookup.Series) != 2 {
		t.Fatalf("lookup family has %d series, want 2", len(lookup.Series))
	}
	if lookup.Series[0].Labels[0] != (Label{"path", "single"}) || lookup.Series[0].Hist.Count() != 1 {
		t.Fatalf("path=single series wrong: %+v", lookup.Series[0])
	}
	upd := byName["neurocuts_update_latency_seconds"]
	if len(upd.Series) != 3 {
		t.Fatalf("update family has %d series, want 3 (insert/delete/compact)", len(upd.Series))
	}
}

func TestInternStability(t *testing.T) {
	tel := New()
	if tel.Intern("single") != PathSingle || tel.Intern("batch") != PathBatch || tel.Intern("") != pathNone {
		t.Fatal("pre-seeded path IDs do not match the Path constants")
	}
	a := tel.Intern("tableA")
	if tel.Intern("tableA") != a {
		t.Fatal("Intern must be stable per string")
	}
	if tel.lookupString(a) != "tableA" {
		t.Fatal("lookupString must invert Intern")
	}
	if tel.lookupString(9999) != "" {
		t.Fatal("unknown IDs must resolve to the empty string")
	}
}

// TestRecordingZeroAlloc pins the recording primitives themselves at zero
// allocations — the serving-path pins in engine build on this.
func TestRecordingZeroAlloc(t *testing.T) {
	tel := New()
	tel.SetSlowThreshold(0)
	tbl := tel.Intern("default")
	if allocs := testing.AllocsPerRun(1000, func() {
		tel.Lookup.RecordNanos(12345, 678)
	}); allocs != 0 {
		t.Fatalf("Histogram.RecordNanos allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if tel.SlowEnough(678) {
			tel.Slow.Record(Sample{
				UnixNanos: 1, LatencyNanos: 678, TableID: tbl,
				PathID: PathSingle, Packets: 1, Matched: true,
			})
		}
	}); allocs != 0 {
		t.Fatalf("Recorder.Record allocates %.1f/op, want 0", allocs)
	}
}
