package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
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
	tel := telemetry.New()
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

// TestSingleTableDaemonIsOneTable: a daemon started without -tables serves
// its flags as one table, "default" (ID 1), and administers tables over the
// wire like a -tables daemon: a table created from a saved artifact can be
// dropped, and the drop closes its engine (its journal file is no longer
// open). /tables lists the default table.
func TestSingleTableDaemonIsOneTable(t *testing.T) {
	artifact, journal := journaledArtifact(t, "extra")

	addr, adminAddr, sig, errCh, out := startDaemonWithAdmin(t, []string{
		"-family", "acl1", "-size", "100", "-algo", "linear",
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
	})
	defer func() {
		sig <- syscall.SIGTERM
		if err := <-errCh; err != nil {
			t.Errorf("daemon exit: %v\noutput:\n%s", err, out.String())
		}
	}()

	var list strings.Builder
	if err := run([]string{"-query", addr.String(), "-list-tables"}, nil, &list); err != nil {
		t.Fatal(err)
	}
	if got, want := list.String(), "table \"default\" id=1 (default)\n"; got != want {
		t.Fatalf("-list-tables printed %q, want %q", got, want)
	}

	client := dialDaemon(t, addr)
	id, rules, err := client.CreateTable("extra", artifact)
	if err != nil {
		t.Fatalf("wire create-table: %v", err)
	}
	if id == 1 || rules != 100 {
		t.Fatalf("created table id=%d rules=%d, want a new ID and 100 rules", id, rules)
	}
	if !fileOpen(t, journal) {
		t.Fatal("the created table's engine does not hold its journal open")
	}
	if err := client.DropTable(id); err != nil {
		t.Fatalf("wire drop-table: %v", err)
	}
	if fileOpen(t, journal) {
		t.Fatal("drop-table left the dropped engine open (its journal is still open)")
	}

	code, body := adminGet(t, adminAddr, "/tables")
	if code != http.StatusOK || !strings.Contains(body, `"name": "default"`) || strings.Contains(body, `"name": "extra"`) {
		t.Fatalf("/tables = %d %q, want the default table alone", code, body)
	}
}

// TestTablesSharedJournalRefused: two -tables entries on one artifact with
// journal:auto would append to one journal, so the daemon refuses to start,
// naming the journal and the table that holds it.
func TestTablesSharedJournalRefused(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "acl.ncaf")
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.NewEngine("hicuts", classbench.Generate(fam, 100, 1), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	src.Close()

	listening := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { listening <- a }
	t.Cleanup(func() { onListen = nil })
	sig := make(chan os.Signal, 1)
	errCh := make(chan error, 1)
	spec := "a=artifact:" + artifact + ",journal:auto;b=artifact:" + artifact + ",journal:auto"
	go func() { errCh <- run([]string{"-tables", spec, "-listen", "127.0.0.1:0"}, sig, io.Discard) }()
	select {
	case err := <-errCh:
		journal := engine.JournalPathFor(artifact)
		if err == nil || !strings.Contains(err.Error(), journal) || !strings.Contains(err.Error(), `"a"`) {
			t.Fatalf("startup error = %v, want one naming %s and table \"a\"", err, journal)
		}
	case <-listening:
		sig <- syscall.SIGTERM
		<-errCh
		t.Fatal("the daemon served two tables on one journal")
	case <-time.After(30 * time.Second):
		t.Fatal("the daemon neither failed nor started within 30s")
	}
}

// journaledArtifact saves a 100-rule fw1 HiCuts artifact named name in a
// temporary directory, with a co-located journal: a table created from the
// artifact over the wire opens that journal, so its file descriptor shows
// whether the table's engine is open.
func journaledArtifact(t *testing.T, name string) (artifact, journal string) {
	t.Helper()
	artifact = filepath.Join(t.TempDir(), name+".ncaf")
	fam, err := classbench.FamilyByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.NewEngine("hicuts", classbench.Generate(fam, 100, 2), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	src.Close()
	journal = engine.JournalPathFor(artifact)
	j, err := engine.NewEngineFromArtifact(artifact, engine.Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return artifact, journal
}

// fileOpen reports whether this process holds path open, from /proc.
func fileOpen(t *testing.T, path string) bool {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			return true
		}
	}
	return false
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

// TestRetiredBackendsRejected: tss is an ablation baseline, not a serving
// backend, and tcam names none. Naming either to the daemon or to the SDK
// fails with the unknown-backend error, which lists exactly the six served
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

// TestFlowCacheBudgetRejected: a flow-cache budget past the engine's cap —
// 2^62+1 entries once hung the cache's sizing loop, a few GiB of entries
// panicked in make — fails with the cap error from the daemon, single-table
// and -tables alike, and from the SDK.
func TestFlowCacheBudgetRejected(t *testing.T) {
	for _, budget := range []int{1<<62 + 1, 1 << 34} {
		for _, args := range [][]string{
			{"-family", "acl1", "-size", "50", "-algo", "linear"},
			{"-tables", "a=backend:linear,family:acl1,size:50"},
		} {
			sig := make(chan os.Signal, 1)
			sig <- syscall.SIGTERM
			args = append(args, "-flow-cache", strconv.Itoa(budget), "-listen", "127.0.0.1:0")
			if err := run(args, sig, io.Discard); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
				t.Errorf("classifyd %v: err = %v, want the flow-cache cap error", args, err)
			}
		}
		rules, err := classifier.GenerateRules("acl1", 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := classifier.Open(rules, classifier.WithFlowCache(budget)); err == nil {
			c.Close()
			t.Errorf("classifier.Open(WithFlowCache(%d)) succeeded", budget)
		} else if !strings.Contains(err.Error(), "exceeds the cap") {
			t.Errorf("classifier.Open(WithFlowCache(%d)): err = %v, want the cap error", budget, err)
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
