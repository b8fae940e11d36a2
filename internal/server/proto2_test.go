package server

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

func dialV2Test(t testing.TB, addr string) *ClientV2 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialV2(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func buildTestEngine(t *testing.T, family, backend string, size int) (*engine.Engine, *rule.Set) {
	t.Helper()
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, size, 1)
	eng, err := engine.NewEngine(backend, set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, set
}

// startTablesServer serves two tables — "acl" (default, hicuts) and "fw"
// (linear) — from one multi-table server.
func startTablesServer(t *testing.T) (*engine.Tables, map[string]*rule.Set, string) {
	t.Helper()
	tabs := engine.NewTables()
	sets := map[string]*rule.Set{}
	aclEng, aclSet := buildTestEngine(t, "acl1", "hicuts", 200)
	fwEng, fwSet := buildTestEngine(t, "fw2", "linear", 150)
	sets["acl"], sets["fw"] = aclSet, fwSet
	if _, err := tabs.Create("acl", aclEng); err != nil {
		t.Fatal(err)
	}
	if _, err := tabs.Create("fw", fwEng); err != nil {
		t.Fatal(err)
	}
	srv := NewTables(tabs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		tabs.CloseAll()
	})
	return tabs, sets, addr.String()
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpPing},
		{Op: OpClassify, Table: 7, Payload: appendPacket(nil, rule.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 5})},
		{Op: OpError, Table: 0xFFFFFFFF, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Op: OpStats, Payload: []byte{}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.Table != want.Table || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, Frame{Op: OpClassify, Table: 1, Payload: make([]byte, packedPacketLen)})

	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x40
		return b
	}
	cases := map[string][]byte{
		"magic":   flip(1),
		"version": flip(4),
		"flags":   flip(6),
		"payload": flip(frameHeaderLen + 2),
		"crc":     flip(len(good) - 1),
	}
	for name, b := range cases {
		if _, err := ReadFrame(bytes.NewReader(b)); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
	// Oversized payload length is rejected before any allocation.
	huge := append([]byte(nil), good...)
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := ReadFrame(bytes.NewReader(huge)); err != errFrameOversize {
		t.Errorf("oversized payload: err = %v", err)
	}
}

// TestV2ClassifyAndBatch proves the binary protocol returns the same
// matches as direct engine lookups, single and batched.
func TestV2ClassifyAndBatch(t *testing.T) {
	eng, set, addr := startEngineServer(t, "hicuts")
	c := dialV2Test(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	trace := classbench.GenerateTrace(set, 500, 2)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}

	for _, key := range keys[:50] {
		want, wantOK := eng.Classify(key)
		id, priority, ok, err := c.Classify(key)
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || id != want.ID || priority != want.Priority {
			t.Fatalf("v2 classify %v: got (%d,%d,%v) want (%d,%d,%v)", key, id, priority, ok, want.ID, want.Priority, wantOK)
		}
	}

	results, err := c.ClassifyBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(keys) {
		t.Fatalf("got %d results for %d keys", len(results), len(keys))
	}
	for i, key := range keys {
		want, wantOK := eng.Classify(key)
		if results[i].OK != wantOK || (wantOK && results[i].Rule.ID != want.ID) {
			t.Fatalf("v2 batch slot %d disagrees with engine", i)
		}
	}
}

// TestV2ClassifyBatchBeyondMaxBatch is the regression test for the
// chunked-batch deadlock: a batch larger than MaxBatch must be split into
// sequential request/response rounds (writing all chunks up front can
// deadlock both ends once socket buffers fill) and still return every
// result in order.
func TestV2ClassifyBatchBeyondMaxBatch(t *testing.T) {
	eng, set, addr := startEngineServer(t, "linear")
	c := dialV2Test(t, addr)

	trace := classbench.GenerateTrace(set, MaxBatch+1500, 4)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}
	done := make(chan error, 1)
	var results []engine.Result
	go func() {
		var err error
		results, err = c.ClassifyBatch(keys)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("oversized ClassifyBatch deadlocked")
	}
	if len(results) != len(keys) {
		t.Fatalf("got %d results for %d keys", len(results), len(keys))
	}
	for _, i := range []int{0, MaxBatch - 1, MaxBatch, len(keys) - 1} {
		want, wantOK := eng.Classify(keys[i])
		if results[i].OK != wantOK || (wantOK && results[i].Rule.ID != want.ID) {
			t.Fatalf("slot %d disagrees with engine", i)
		}
	}
}

// TestV2MultiTable serves two rule sets concurrently and checks per-table
// addressing, live updates and stats isolation.
func TestV2MultiTable(t *testing.T) {
	tabs, sets, addr := startTablesServer(t)
	c := dialV2Test(t, addr)

	tables, err := c.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("ListTables: %+v", tables)
	}
	aclID, err := c.ResolveTable("acl")
	if err != nil {
		t.Fatal(err)
	}
	fwID, err := c.ResolveTable("fw")
	if err != nil {
		t.Fatal(err)
	}

	// Per-table lookups agree with each table's own linear search; table 0
	// is the default table, acl.
	for _, tc := range []struct {
		name string
		id   uint32
	}{{"acl", aclID}, {"fw", fwID}, {"acl", 0}} {
		name, set := tc.name, sets[tc.name]
		c.UseTable(tc.id)
		trace := classbench.GenerateTrace(set, 300, 3)
		keys := make([]rule.Packet, len(trace))
		for i, e := range trace {
			keys[i] = e.Key
		}
		results, err := c.ClassifyBatch(keys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, key := range keys {
			want, wantOK := set.Match(key)
			if results[i].OK != wantOK || (wantOK && results[i].Rule.Priority != want.Priority) {
				t.Fatalf("table %s slot %d disagrees with its rule set", name, i)
			}
		}
	}

	// An insert in one table must not leak into the other.
	r := rule.NewWildcardRule(-1)
	r.Ranges[rule.DimProto] = rule.Range{Lo: 201, Hi: 201}
	c.UseTable(aclID)
	id, _, err := c.AddRule(0, r)
	if err != nil {
		t.Fatal(err)
	}
	probe := rule.Packet{Proto: 201}
	gotID, _, ok, err := c.Classify(probe)
	if err != nil || !ok || gotID != id {
		t.Fatalf("acl insert not visible: id=%d ok=%v err=%v", gotID, ok, err)
	}
	c.UseTable(fwID)
	if _, _, ok, _ := c.Classify(probe); ok {
		fwTab, _ := tabs.GetByID(fwID)
		if _, really := fwTab.Engine.Classify(probe); !really {
			t.Fatal("insert into acl leaked into fw")
		}
	}
	c.UseTable(aclID)
	if _, err := c.DeleteRule(id); err != nil {
		t.Fatal(err)
	}

	// Unknown table IDs error without killing the connection.
	c.UseTable(9999)
	if _, _, _, err := c.Classify(probe); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("unknown table: err = %v", err)
	}
	c.UseTable(0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestV2TableAdmin exercises create-from-artifact and drop over the wire.
func TestV2TableAdmin(t *testing.T) {
	_, _, addr := startTablesServer(t)
	c := dialV2Test(t, addr)

	// Save the default table as an artifact, then create a new table from it.
	artifact := filepath.Join(t.TempDir(), "acl.ncaf")
	c.UseTable(0)
	if err := c.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	id, rules, err := c.CreateTable("acl-copy", artifact)
	if err != nil {
		t.Fatal(err)
	}
	if rules != 200 {
		t.Fatalf("created table has %d rules, want 200", rules)
	}
	tables, err := c.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("expected 3 tables after create, got %+v", tables)
	}
	// The new table serves lookups.
	c.UseTable(id)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Classify(rule.Packet{}); err != nil {
		t.Fatal(err)
	}
	// Duplicate names are rejected.
	if _, _, err := c.CreateTable("acl-copy", artifact); err == nil {
		t.Fatal("duplicate create-table must fail")
	}
	if err := c.DropTable(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResolveTable("acl-copy"); err == nil {
		t.Fatal("dropped table still listed")
	}
	// Dropping the default table is refused.
	if err := c.DropTable(0); err == nil {
		t.Fatal("dropping the default table must fail")
	}
}

// TestV2CreateTableReplaysJournal pins the crash-recovery contract of
// wire-created tables: when the artifact has a co-located journal holding
// acknowledged updates, OpCreateTable must replay them rather than silently
// serving the stale checkpoint.
func TestV2CreateTableReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "policy.ncaf")

	// A journaled engine: checkpoint the artifact, then acknowledge one
	// more insert into the co-located journal and "crash" (close).
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 120, 1)
	eng, err := engine.NewEngine("hicuts", set, engine.Options{
		JournalPath: engine.JournalPathFor(artifact), CompactThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	r := rule.NewWildcardRule(-1)
	r.Ranges[rule.DimProto] = rule.Range{Lo: 212, Hi: 212}
	ins, err := eng.Insert(0, r)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()

	_, _, addr := startTablesServer(t)
	c := dialV2Test(t, addr)
	_, rules, err := c.CreateTable("recovered", artifact)
	if err != nil {
		t.Fatal(err)
	}
	if rules != 121 {
		t.Fatalf("recovered table has %d rules; want 121 (the journaled insert must replay)", rules)
	}
	id, err := c.ResolveTable("recovered")
	if err != nil {
		t.Fatal(err)
	}
	c.UseTable(id)
	gotID, _, ok, err := c.Classify(rule.Packet{Proto: 212})
	if err != nil || !ok || gotID != ins.ID {
		t.Fatalf("journaled insert not served: id=%d ok=%v err=%v want id=%d", gotID, ok, err, ins.ID)
	}
}

// savedArtifact saves a 120-rule hicuts engine as an artifact in a
// fresh directory and returns its path; the co-located journal does not
// exist yet.
func savedArtifact(t *testing.T) string {
	t.Helper()
	artifact := filepath.Join(t.TempDir(), "policy.ncaf")
	eng, _ := buildTestEngine(t, "acl1", "hicuts", 120)
	defer eng.Close()
	if err := eng.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	return artifact
}

// TestV2CreateTableRefusesHeldJournal: a wire create-table of an artifact
// whose co-located journal a live table appends to returns an error frame
// naming the journal and the table, and every update the live table
// acknowledged, before and after the refusal, replays after a restart.
func TestV2CreateTableRefusesHeldJournal(t *testing.T) {
	artifact := savedArtifact(t)
	journal := engine.JournalPathFor(artifact)
	live, err := engine.NewEngineFromArtifact(artifact, engine.Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	tabs := engine.NewTables()
	if _, err := tabs.Create("live", live); err != nil {
		t.Fatal(err)
	}
	srv := NewTables(tabs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialV2Test(t, addr.String())

	acked := map[int]bool{}
	insert := func(n int) {
		for i := 0; i < n; i++ {
			r := rule.NewWildcardRule(-1)
			r.Ranges[rule.DimProto] = rule.Range{Lo: uint64(200 + len(acked)), Hi: uint64(200 + len(acked))}
			id, _, err := c.AddRule(0, r)
			if err != nil {
				t.Fatal(err)
			}
			acked[id] = true
		}
	}
	insert(5)
	_, _, err = c.CreateTable("copy", artifact)
	if err == nil || !strings.Contains(err.Error(), journal) || !strings.Contains(err.Error(), `"live"`) {
		t.Fatalf("create-table over a held journal: err = %v, want an error naming %s and table \"live\"", err, journal)
	}
	if _, err := c.ResolveTable("copy"); err == nil {
		t.Fatal("the refused table is listed")
	}
	insert(5)

	c.Close()
	srv.Close()
	tabs.CloseAll()
	re, err := engine.NewEngineFromArtifact(artifact, engine.Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed := 0
	for _, r := range re.Rules().Rules() {
		if acked[r.ID] {
			replayed++
		}
	}
	if replayed != len(acked) || re.Len() != 120+len(acked) {
		t.Fatalf("restart replayed %d of %d acknowledged inserts (%d rules, want %d)", replayed, len(acked), re.Len(), 120+len(acked))
	}
}

// TestV2CreatedTableTelemetryLabel: a table created over the wire files its
// slow lookups under its own name, the label /metrics gives it too.
func TestV2CreatedTableTelemetryLabel(t *testing.T) {
	artifact := savedArtifact(t)
	tel := telemetry.New(telemetry.Config{})
	tel.SetSlowThreshold(0)
	def, _ := buildTestEngine(t, "fw2", "linear", 50)
	tabs := engine.NewTables()
	if _, err := tabs.Create("default", def); err != nil {
		t.Fatal(err)
	}
	srv := NewTables(tabs)
	srv.TableCreateOptions = engine.Options{Telemetry: tel}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		tabs.CloseAll()
	})
	c := dialV2Test(t, addr.String())
	id, _, err := c.CreateTable("fw", artifact)
	if err != nil {
		t.Fatal(err)
	}
	c.UseTable(id)
	if _, _, _, err := c.Classify(rule.Packet{Proto: 6}); err != nil {
		t.Fatal(err)
	}
	es := tel.SlowEntries()
	if len(es) == 0 {
		t.Fatal("threshold 0 captured no slow lookup")
	}
	for _, e := range es {
		if e.Table != "fw" {
			t.Fatalf("created table's lookup filed under table %q, want \"fw\"", e.Table)
		}
	}
}

// TestV2GarbageFrameClosesConnection sends a corrupted frame and expects an
// error response followed by connection teardown (framing cannot be
// resynchronised after corruption).
func TestV2GarbageFrameClosesConnection(t *testing.T) {
	_, _, addr := startEngineServer(t, "linear")
	c := dialV2Test(t, addr)
	bad := AppendFrame(nil, Frame{Op: OpPing})
	bad[len(bad)-1] ^= 0xFF // corrupt CRC
	if _, err := c.conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	// The server answers with an OpError frame (when framing allowed it to)
	// and then tears the connection down — the next read must hit EOF.
	f, err := ReadFrame(c.r)
	if err == nil {
		if f.Op != OpError {
			t.Fatalf("expected OpError after corrupt frame, got op %d", f.Op)
		}
		if _, err := ReadFrame(c.r); err == nil {
			t.Fatal("connection must close after a framing error")
		}
	}
}
