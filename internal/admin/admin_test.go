package admin

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

func adminTestSet(t testing.TB, size int) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, 23)
}

// get fetches path from the test server and returns status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts one sample's value from an exposition document.
// labels is the rendered label block including braces ("" for none).
func metricValue(t *testing.T, body, name, labels string) float64 {
	t.Helper()
	prefix := name + labels + " "
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
			if err != nil {
				t.Fatalf("sample %s%s: bad value in %q: %v", name, labels, line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %s%s not found in /metrics output", name, labels)
	return 0
}

// TestAdminMetricsMatchEngineStats is the satellite acceptance test: after a
// scripted lookup/insert/delete/compact sequence, every per-table sample on
// /metrics must equal the corresponding UpdaterStats / CacheStats /
// EngineStats reading.
func TestAdminMetricsMatchEngineStats(t *testing.T) {
	set := adminTestSet(t, 300)
	jpath := filepath.Join(t.TempDir(), "admin.journal")
	eng, err := engine.NewEngine("hicuts", set, engine.Options{
		CompactThreshold: -1, // compaction only when the script asks
		JournalPath:      jpath,
		FlowCacheEntries: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Script: lookups (repeated, so the flow cache records both misses and
	// hits), two inserts, one delete, then a synchronous compaction via
	// SaveArtifact.
	trace := classbench.GenerateTrace(set, 64, 29)
	for pass := 0; pass < 2; pass++ {
		for _, e2 := range trace {
			eng.Classify(e2.Key)
		}
	}
	if _, err := eng.Insert(10, set.Rule(1)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Insert(20, set.Rule(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Delete(res.ID); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveArtifact(filepath.Join(t.TempDir(), "a.ncc")); err != nil {
		t.Fatal(err)
	}
	// One more insert so the post-compaction overlay is non-empty.
	if _, err := eng.Insert(0, set.Rule(3)); err != nil {
		t.Fatal(err)
	}

	adm := New(Options{Engine: eng})
	ts := httptest.NewServer(adm.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := LintMetrics([]byte(body)); err != nil {
		t.Fatalf("/metrics failed the exposition-format lint: %v", err)
	}

	st := eng.Stats()
	hits, misses := eng.CacheStats()
	up := eng.UpdaterStats()
	lbl := `{table="default"}`
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"neurocuts_engine_rules", float64(st.Rules)},
		{"neurocuts_engine_snapshot_version", float64(st.Version)},
		{"neurocuts_engine_lookups_total", float64(st.Lookups)},
		{"neurocuts_engine_updates_total", float64(st.Updates)},
		{"neurocuts_engine_update_failures_total", 0},
		{"neurocuts_flowcache_hits_total", float64(hits)},
		{"neurocuts_flowcache_misses_total", float64(misses)},
		{"neurocuts_updater_overlay_rules", float64(up.OverlayRules)},
		{"neurocuts_updater_tombstones", float64(up.Tombstones)},
		{"neurocuts_updater_compactions_total", float64(up.Compactions)},
		{"neurocuts_updater_compact_failures_total", 0},
		{"neurocuts_updater_journal_records", float64(up.JournalRecords)},
		{"neurocuts_updater_journal_bytes", float64(up.JournalBytes)},
	} {
		if got := metricValue(t, body, tc.name, lbl); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Sanity-pin the script's own expectations so the test cannot pass
	// vacuously on all-zero stats.
	if st.Lookups != 128 {
		t.Errorf("scripted Lookups = %d, want 128", st.Lookups)
	}
	if st.Updates != 4 {
		t.Errorf("scripted Updates = %d, want 4", st.Updates)
	}
	if up.Compactions != 1 {
		t.Errorf("scripted Compactions = %d, want 1", up.Compactions)
	}
	if up.OverlayRules != 1 {
		t.Errorf("post-compaction OverlayRules = %d, want 1", up.OverlayRules)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("flow cache idle during script: hits=%d misses=%d", hits, misses)
	}
	if up.JournalRecords != 4 || up.JournalBytes <= 0 {
		t.Errorf("journal records=%d bytes=%d, want 4 records and a positive length",
			up.JournalRecords, up.JournalBytes)
	}
}

func TestAdminHealthAndReady(t *testing.T) {
	set := adminTestSet(t, 50)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	t.Run("engine-mode", func(t *testing.T) {
		ts := httptest.NewServer(New(Options{Engine: eng}).Handler())
		defer ts.Close()
		if code, body := get(t, ts, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
			t.Fatalf("/healthz = %d %q", code, body)
		}
		if code, body := get(t, ts, "/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
			t.Fatalf("/readyz = %d %q", code, body)
		}
	})

	t.Run("no-sources", func(t *testing.T) {
		ts := httptest.NewServer(New(Options{}).Handler())
		defer ts.Close()
		if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
			t.Fatalf("/healthz = %d, liveness must not depend on sources", code)
		}
		code, body := get(t, ts, "/readyz")
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "no classification engine") {
			t.Fatalf("/readyz = %d %q, want 503 naming the missing engine", code, body)
		}
		// Sourceless metrics still render a valid document (process metrics).
		code, body = get(t, ts, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		if err := LintMetrics([]byte(body)); err != nil {
			t.Fatalf("sourceless /metrics fails lint: %v", err)
		}
	})

	t.Run("ready-override", func(t *testing.T) {
		ts := httptest.NewServer(New(Options{
			Engine: eng,
			Ready:  func() error { return errors.New("warm-up in progress") },
		}).Handler())
		defer ts.Close()
		code, body := get(t, ts, "/readyz")
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "warm-up in progress") {
			t.Fatalf("/readyz = %d %q, want 503 with the override's error", code, body)
		}
	})
}

func TestAdminTablesMode(t *testing.T) {
	tables := engine.NewTables()
	defer tables.CloseAll()

	adm := New(Options{Tables: tables})
	ts := httptest.NewServer(adm.Handler())
	defer ts.Close()

	// Empty registry: not ready, /tables is an empty JSON array.
	if code, body := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no default table") {
		t.Fatalf("/readyz on empty tables = %d %q", code, body)
	}
	code, body := get(t, ts, "/tables")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/tables on empty registry = %d %q, want []", code, body)
	}

	set := adminTestSet(t, 60)
	for _, name := range []string{"acl", "fw"} {
		eng, err := engine.NewEngine("linear", set, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tables.Create(name, eng); err != nil {
			t.Fatal(err)
		}
	}

	if code, body := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz with default table = %d %q", code, body)
	}

	code, body = get(t, ts, "/tables")
	if code != http.StatusOK {
		t.Fatalf("/tables = %d", code)
	}
	var listed []struct {
		Name    string `json:"name"`
		ID      uint32 `json:"id"`
		Default bool   `json:"default"`
		Backend string `json:"backend"`
		Rules   int    `json:"rules"`
	}
	if err := json.Unmarshal([]byte(body), &listed); err != nil {
		t.Fatalf("/tables is not JSON: %v\n%s", err, body)
	}
	if len(listed) != 2 {
		t.Fatalf("/tables listed %d tables, want 2", len(listed))
	}
	defaults := 0
	for _, e := range listed {
		if e.Default {
			defaults++
			if e.Name != "acl" {
				t.Errorf("default table = %q, want acl (first created)", e.Name)
			}
		}
		if e.Backend != "linear" || e.Rules != set.Len() {
			t.Errorf("table %q: backend=%q rules=%d, want linear/%d", e.Name, e.Backend, e.Rules, set.Len())
		}
	}
	if defaults != 1 {
		t.Fatalf("%d default tables in listing, want 1", defaults)
	}

	code, body = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := LintMetrics([]byte(body)); err != nil {
		t.Fatalf("tables-mode /metrics fails lint: %v", err)
	}
	if got := metricValue(t, body, "neurocuts_tables", ""); got != 2 {
		t.Errorf("neurocuts_tables = %v, want 2", got)
	}
	for _, name := range []string{"acl", "fw"} {
		lbl := fmt.Sprintf("{table=%q}", name)
		if got := metricValue(t, body, "neurocuts_engine_rules", lbl); got != float64(set.Len()) {
			t.Errorf("neurocuts_engine_rules%s = %v, want %d", lbl, got, set.Len())
		}
	}
}

// TestAdminListenShutdown exercises the real listener path used by the
// daemons: bind, scrape over TCP, shut down, observe refusal.
func TestAdminListenShutdown(t *testing.T) {
	set := adminTestSet(t, 40)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	adm := New(Options{Engine: eng})
	addr, err := adm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatalf("scrape over TCP: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz over TCP = %d", resp.StatusCode)
	}

	if err := adm.Shutdown(t.Context()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr.String() + "/healthz"); err == nil {
		t.Fatal("admin listener still accepting after Shutdown")
	}
	// Second Shutdown is a no-op, not a panic.
	if err := adm.Shutdown(t.Context()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestAdminTelemetryExposition drives a telemetry-instrumented engine, then
// asserts /metrics exposes the native histogram families (lint-clean, counts
// matching the real traffic) and /debug/slow dumps the flight recorder.
func TestAdminTelemetryExposition(t *testing.T) {
	set := adminTestSet(t, 200)
	tel := telemetry.New(telemetry.Config{})
	tel.SetSlowThreshold(0) // capture everything
	eng, err := engine.NewEngine("linear", set, engine.Options{
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	trace := classbench.GenerateTrace(set, 256, 31)
	ps := make([]rule.Packet, len(trace))
	for i, e := range trace {
		ps[i] = e.Key
	}
	out := make([]engine.Result, len(ps))
	eng.ClassifyBatch(ps, out)
	for _, p := range ps[:32] {
		eng.Classify(p)
	}
	if _, err := eng.Insert(0, set.Rule(1)); err != nil {
		t.Fatal(err)
	}

	adm := New(Options{Engine: eng, Telemetry: tel})
	ts := httptest.NewServer(adm.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := LintMetrics([]byte(body)); err != nil {
		t.Fatalf("telemetry /metrics fails lint: %v\n%s", err, body)
	}

	// The histogram families' _count must equal what telemetry recorded.
	if got := metricValue(t, body, "neurocuts_lookup_latency_seconds_count", `{path="single"}`); got != float64(tel.Lookup.Snapshot().Count()) {
		t.Errorf("single lookup _count = %v, want %d", got, tel.Lookup.Snapshot().Count())
	}
	if got := metricValue(t, body, "neurocuts_lookup_latency_seconds_count", `{path="batch"}`); got == 0 {
		t.Error("batch lookup _count = 0, want recorded miss-batch spans")
	}
	if got := metricValue(t, body, "neurocuts_update_latency_seconds_count", `{op="insert"}`); got != 1 {
		t.Errorf("insert _count = %v, want 1", got)
	}
	if !strings.Contains(body, `neurocuts_lookup_latency_seconds_bucket{path="single",le="+Inf"}`) {
		t.Error("single lookup family missing its +Inf bucket")
	}
	if !strings.Contains(body, "# TYPE neurocuts_server_request_latency_seconds histogram") {
		t.Error("server request family not declared as a histogram")
	}

	// /debug/slow: threshold 0 captured entries; worst-first JSON.
	code, body = get(t, ts, "/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow = %d", code)
	}
	var dump struct {
		ThresholdNanos int64 `json:"threshold_nanos"`
		Entries        []struct {
			LatencyNanos int64  `json:"latency_nanos"`
			Table        string `json:"table"`
			Path         string `json:"path"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v\n%s", err, body)
	}
	if dump.ThresholdNanos != 0 {
		t.Errorf("threshold_nanos = %d, want 0", dump.ThresholdNanos)
	}
	if len(dump.Entries) == 0 {
		t.Fatal("/debug/slow captured no entries at threshold 0")
	}
	for i, e := range dump.Entries {
		if e.Table != "default" {
			t.Errorf("entry %d: table = %q, want default", i, e.Table)
		}
		if i > 0 && e.LatencyNanos > dump.Entries[i-1].LatencyNanos {
			t.Errorf("entries not sorted worst-first at %d", i)
		}
	}
}

// TestAdminSlowWithoutTelemetry pins the disabled shape: /debug/slow must
// answer (threshold -1, empty entries) rather than 404 when the daemon runs
// without telemetry.
func TestAdminSlowWithoutTelemetry(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow = %d", code)
	}
	var dump struct {
		ThresholdNanos int64             `json:"threshold_nanos"`
		Entries        []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v\n%s", err, body)
	}
	if dump.ThresholdNanos != -1 {
		t.Errorf("threshold_nanos = %d, want -1 (disabled)", dump.ThresholdNanos)
	}
	if dump.Entries == nil || len(dump.Entries) != 0 {
		t.Errorf("entries = %v, want present-and-empty", dump.Entries)
	}
}

func TestAdminPprofIndex(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d, want the pprof index", code)
	}
	if code, _ := get(t, ts, "/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/goroutine = %d", code)
	}
}
