package main

import (
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
	"neurocuts/pkg/classifier"
)

// TestTableDefaultsOptions holds the one engine-options builder every
// daemon engine starts from to the flags: each field lands in its option,
// and a field that stops reaching the options (or a new field nobody wired)
// fails.
func TestTableDefaultsOptions(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	d := tableDefaults{binth: 8, timesteps: 700, seed: 9, flowCache: 512, compactAt: 33, tel: tel}
	want := engine.Options{Binth: 8, Timesteps: 700, Seed: 9, FlowCacheEntries: 512, CompactThreshold: 33, Telemetry: tel}
	if got := d.options(); got != want {
		t.Fatalf("options() = %+v, want %+v", got, want)
	}
	// One reset per field: the count check makes a new field join the list.
	resets := map[string]func(*tableDefaults){
		"binth":     func(d *tableDefaults) { d.binth = 0 },
		"timesteps": func(d *tableDefaults) { d.timesteps = 0 },
		"seed":      func(d *tableDefaults) { d.seed = 0 },
		"flowCache": func(d *tableDefaults) { d.flowCache = 0 },
		"compactAt": func(d *tableDefaults) { d.compactAt = 0 },
		"tel":       func(d *tableDefaults) { d.tel = nil },
	}
	if n := reflect.TypeOf(d).NumField(); n != len(resets) {
		t.Fatalf("tableDefaults has %d fields, the test resets %d", n, len(resets))
	}
	for name, reset := range resets {
		cut := d
		reset(&cut)
		if cut.options() == want {
			t.Errorf("field %s does not reach the engine options", name)
		}
	}
}

func TestParseTableSpecs(t *testing.T) {
	specs, err := parseTableSpecs("acl=backend:hicuts,family:acl1,size:200; fw=backend:linear,family:fw2,size:100")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].name != "acl" || specs[1].name != "fw" {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].kv["backend"] != "hicuts" || specs[1].kv["size"] != "100" {
		t.Fatalf("kv = %+v", specs)
	}
	for _, bad := range []string{
		"",
		"noequals",
		"a=backend:hicuts;a=backend:linear", // duplicate name
		"a=bogus:1",                         // unknown key
		"a=online:true",                     // no key selects a write path
		"a=backend",                         // setting without value
	} {
		if _, err := parseTableSpecs(bad); err == nil {
			t.Errorf("parseTableSpecs(%q) should fail", bad)
		}
	}
}

// TestTablesDaemon boots a two-table daemon, queries the default table
// (table 0) and a named one over one connection, and shuts it down
// gracefully.
func TestTablesDaemon(t *testing.T) {
	addr, sig, errCh, out := startDaemon(t, []string{
		"-tables", "acl=backend:linear,family:acl1,size:150;fw=backend:linear,family:fw2,size:80",
		"-listen", "127.0.0.1:0",
	})

	// Table 0 is the default table (acl).
	v2 := dialDaemon(t, addr)
	if _, _, _, err := v2.Classify(parsePacket(t, "10.0.0.1 192.168.1.1 1234 80 6")); err != nil {
		t.Fatal(err)
	}

	// List tables and classify against the non-default table.
	tables, err := v2.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || !tables[0].Default {
		t.Fatalf("tables = %+v (want acl default, fw secondary)", tables)
	}
	fwID, err := v2.ResolveTable("fw")
	if err != nil {
		t.Fatal(err)
	}
	v2.UseTable(fwID)
	if _, _, _, err := v2.Classify(parsePacket(t, "10.0.0.1 192.168.1.1 1234 80 6")); err != nil {
		t.Fatal(err)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit\noutput:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "serving 2 tables") {
		t.Fatalf("missing tables banner in output:\n%s", out.String())
	}
}

// TestTablesFlowCache: -flow-cache funds every table's engine in -tables
// mode. A batch sent twice must hit the table's cache the second time.
func TestTablesFlowCache(t *testing.T) {
	addr, adminAddr, sig, errCh, _ := startDaemonWithAdmin(t, []string{
		"-tables", "a=backend:hicuts,family:acl1,size:200",
		"-flow-cache", "4096", "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
	})
	defer func() {
		sig <- syscall.SIGTERM
		<-errCh
	}()

	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(classbench.Generate(fam, 200, 1), 256, 3) {
		packets = append(packets, e.Key)
	}
	client := dialDaemon(t, addr)
	for i := 0; i < 2; i++ {
		if _, err := client.ClassifyBatch(packets); err != nil {
			t.Fatal(err)
		}
	}

	_, body := adminGet(t, adminAddr, "/metrics")
	const metric = `neurocuts_flowcache_hits_total{table="a"} `
	i := strings.Index(body, metric)
	if i < 0 {
		t.Fatalf("/metrics has no %q sample:\n%s", metric, body)
	}
	value, _, _ := strings.Cut(body[i+len(metric):], "\n")
	if hits, err := strconv.ParseFloat(value, 64); err != nil || hits <= 0 {
		t.Fatalf("flow-cache hits for table a = %q after a repeated batch, want > 0", value)
	}
}

// TestRetiredBackendsRejected: TSS and TCAM are ablation baselines only.
// Naming either as a serving backend — to the daemon or to the SDK — fails
// with the unknown-backend error, which lists exactly the six served
// backends.
func TestRetiredBackendsRejected(t *testing.T) {
	const have = "(have: cutsplit, efficuts, hicuts, hypercuts, linear, neurocuts)"
	for _, backend := range []string{"tss", "tcam"} {
		// A daemon that did start stops at once instead of blocking the test.
		sig := make(chan os.Signal, 1)
		sig <- syscall.SIGTERM
		err := run([]string{"-family", "acl1", "-size", "50", "-algo", backend, "-listen", "127.0.0.1:0"}, sig, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown backend") || !strings.HasSuffix(err.Error(), have) {
			t.Errorf("classifyd -algo %s: err = %v, want the unknown-backend error ending %s", backend, err, have)
		}
		rules, err := classifier.GenerateRules("acl1", 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := classifier.Open(rules, classifier.WithBackend(backend)); err == nil {
			c.Close()
			t.Errorf("classifier.Open(WithBackend(%q)) succeeded", backend)
		} else if !strings.Contains(err.Error(), "unknown backend") || !strings.HasSuffix(err.Error(), have) {
			t.Errorf("classifier.Open(WithBackend(%q)): err = %v, want the unknown-backend error ending %s", backend, err, have)
		}
	}
}

func parsePacket(t *testing.T, s string) rule.Packet {
	t.Helper()
	key, err := rule.ParsePacket(s)
	if err != nil {
		t.Fatal(err)
	}
	return key
}
