package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"neurocuts/internal/admin"
)

// startDaemonWithAdmin starts the daemon like startDaemon and also captures
// the bound admin address.
func startDaemonWithAdmin(t *testing.T, args []string) (wire, adminAddr net.Addr, sig chan os.Signal, errCh <-chan error, out *syncBuffer) {
	t.Helper()
	adminCh := make(chan net.Addr, 1)
	onAdminListen = func(a net.Addr) { adminCh <- a }
	t.Cleanup(func() { onAdminListen = nil })
	wire, sig, errCh, out = startDaemon(t, args)
	select {
	case adminAddr = <-adminCh:
	case <-time.After(30 * time.Second):
		t.Fatal("admin plane did not start listening within 30s")
	}
	return wire, adminAddr, sig, errCh, out
}

func adminGet(t *testing.T, addr net.Addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminPlaneEndToEnd drives a real daemon with -admin: probes must
// answer, /metrics must lint and reflect wire traffic, and shutdown must
// stop the admin listener along with the daemon.
func TestAdminPlaneEndToEnd(t *testing.T) {
	addr, adminAddr, sig, errCh, out := startDaemonWithAdmin(t, []string{
		"-family", "acl1", "-size", "200", "-algo", "linear",
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
	})

	if code, body := adminGet(t, adminAddr, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := adminGet(t, adminAddr, "/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	// Drive traffic over the classification wire, then scrape: the admin
	// plane must see both the engine counters and the server counters move.
	client := dialDaemon(t, addr)
	if _, _, _, err := client.Classify(parsePacket(t, "10.0.0.1 192.168.1.1 1234 80 6")); err != nil {
		t.Fatal(err)
	}
	id, _, err := client.AddRule(0, wireRule(t, "@10.0.0.0/8 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeleteRule(id); err != nil {
		t.Fatal(err)
	}

	code, body := adminGet(t, adminAddr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := admin.LintMetrics([]byte(body)); err != nil {
		t.Fatalf("live /metrics fails the exposition-format lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		`neurocuts_engine_rules{table="default"} 200`,
		`neurocuts_engine_lookups_total{table="default"} 1`,
		`neurocuts_engine_updates_total{table="default"} 2`,
		`neurocuts_updater_compactions_total{table="default"} 0`, // the add/del above rebuilt nothing
		`neurocuts_server_requests_total 3`,
		`neurocuts_server_update_requests_total 2`,
		`neurocuts_server_active_connections 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = adminGet(t, adminAddr, "/tables")
	if code != http.StatusOK || !strings.Contains(body, `"name": "default"`) {
		t.Fatalf("/tables = %d %q", code, body)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if _, err := http.Get("http://" + adminAddr.String() + "/healthz"); err == nil {
		t.Fatal("admin listener still accepting after shutdown")
	}
	if !strings.Contains(out.String(), "admin plane on http://") {
		t.Fatalf("daemon did not announce the admin plane:\n%s", out.String())
	}
}

// TestTelemetryEndToEnd drives a real daemon with -admin and
// -slow-threshold 0 (capture every lookup): after wire traffic, /metrics
// must stay promlint-clean while exposing the native latency histogram
// families with real counts, and /debug/slow must serve a well-formed
// flight-recorder dump.
func TestTelemetryEndToEnd(t *testing.T) {
	addr, adminAddr, sig, errCh, out := startDaemonWithAdmin(t, []string{
		"-family", "acl1", "-size", "200", "-algo", "linear",
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-slow-threshold", "0",
	})
	defer func() {
		sig <- syscall.SIGTERM
		if err := <-errCh; err != nil {
			t.Errorf("daemon exit: %v\noutput:\n%s", err, out.String())
		}
	}()

	client := dialDaemon(t, addr)
	for i := 0; i < 8; i++ {
		if _, _, _, err := client.Classify(parsePacket(t, "10.0.0.1 192.168.1.1 1234 80 6")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client.AddRule(0, wireRule(t, "@10.0.0.0/8 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF")); err != nil {
		t.Fatal(err)
	}

	// The server records a request's latency after it has flushed the reply,
	// so the client can be here before the ninth sample lands: scrape until
	// it has.
	const frameCount = `neurocuts_server_request_latency_seconds_count{proto="v2"} 9`
	code, body := adminGet(t, adminAddr, "/metrics")
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(body, frameCount+"\n") && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		code, body = adminGet(t, adminAddr, "/metrics")
	}
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := admin.LintMetrics([]byte(body)); err != nil {
		t.Fatalf("telemetry /metrics fails the exposition-format lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE neurocuts_lookup_latency_seconds histogram",
		"# TYPE neurocuts_update_latency_seconds histogram",
		"# TYPE neurocuts_server_request_latency_seconds histogram",
		`neurocuts_lookup_latency_seconds_count{path="single"} 8`,
		`neurocuts_update_latency_seconds_count{op="insert"} 1`,
		frameCount,
		`neurocuts_lookup_latency_seconds_bucket{path="single",le="+Inf"} 8`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = adminGet(t, adminAddr, "/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow = %d", code)
	}
	var dump struct {
		ThresholdNanos int64 `json:"threshold_nanos"`
		Entries        []struct {
			LatencyNanos    int64  `json:"latency_nanos"`
			Table           string `json:"table"`
			Backend         string `json:"backend"`
			Path            string `json:"path"`
			WorstCaseVisits int64  `json:"worst_case_visits"`
			DepthBucket     int    `json:"depth_bucket"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v\n%s", err, body)
	}
	if dump.ThresholdNanos != 0 {
		t.Errorf("threshold_nanos = %d, want 0", dump.ThresholdNanos)
	}
	if len(dump.Entries) == 0 {
		t.Fatal("/debug/slow captured nothing at threshold 0")
	}
	for i, e := range dump.Entries {
		if e.Table != "default" || e.Backend != "linear" {
			t.Errorf("entry %d: table=%q backend=%q, want default/linear", i, e.Table, e.Backend)
		}
		if e.Path != "single" {
			t.Errorf("entry %d: path=%q, want single (OpClassify)", i, e.Path)
		}
		if e.WorstCaseVisits <= 0 || e.DepthBucket <= 0 {
			t.Errorf("entry %d: visits=%d depth_bucket=%d, want positive", i, e.WorstCaseVisits, e.DepthBucket)
		}
		if i > 0 && e.LatencyNanos > dump.Entries[i-1].LatencyNanos {
			t.Errorf("entries not sorted worst-first at %d", i)
		}
	}
}

// TestAdminPlaneTablesMode: the multi-table daemon must expose per-table
// samples and the table listing over the same admin flag.
func TestAdminPlaneTablesMode(t *testing.T) {
	_, adminAddr, sig, errCh, _ := startDaemonWithAdmin(t, []string{
		"-tables", "acl=backend:linear,family:acl1,size:100;fw=backend:linear,family:fw1,size:50",
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
	})
	defer func() {
		sig <- syscall.SIGTERM
		<-errCh
	}()

	if code, _ := adminGet(t, adminAddr, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d", code)
	}
	code, body := adminGet(t, adminAddr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := admin.LintMetrics([]byte(body)); err != nil {
		t.Fatalf("tables-mode /metrics fails lint: %v", err)
	}
	for _, want := range []string{
		"neurocuts_tables 2",
		`neurocuts_engine_rules{table="acl"} 100`,
		`neurocuts_engine_rules{table="fw"} 50`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
	code, body = adminGet(t, adminAddr, "/tables")
	if code != http.StatusOK || !strings.Contains(body, `"name": "acl"`) || !strings.Contains(body, `"name": "fw"`) {
		t.Fatalf("/tables = %d %q", code, body)
	}
}
