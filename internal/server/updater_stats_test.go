package server

import (
	"path/filepath"
	"strings"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// statsRequest returns the stats line as a fresh connection sees it.
func statsRequest(t *testing.T, addr string) string {
	t.Helper()
	line, err := dialV2Test(t, addr).Stats()
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestStatsExposesUpdaterState: an engine surfaces overlay size, tombstones,
// generation, compaction and journal state through the stats request; live
// insert/delete through the protocol move those fields.
func TestStatsExposesUpdaterState(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 150, 1)
	journal := filepath.Join(t.TempDir(), "srv.journal")
	eng, err := engine.NewEngine("hicuts", set, engine.Options{
		JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	resp := statsRequest(t, addr.String())
	for _, field := range []string{"overlay=0", "tombstones=0", "rules=150", "compactions=0", "journal-records=0"} {
		if !strings.Contains(resp, field) {
			t.Fatalf("stats %q missing %q", resp, field)
		}
	}

	c := dialV2Test(t, addr.String())
	id, _, err := c.AddRule(0, parseRule(t, "@10.0.0.0/8 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteRule(set.Rule(3).ID); err != nil {
		t.Fatal(err)
	}
	resp = statsRequest(t, addr.String())
	for _, field := range []string{"overlay=1", "tombstones=1", "rules=150", "journal-records=2"} {
		if !strings.Contains(resp, field) {
			t.Fatalf("stats after updates %q missing %q", resp, field)
		}
	}
	if !strings.Contains(resp, "generation=") {
		t.Fatalf("stats %q missing generation", resp)
	}
	// The added rule must be live through the overlay.
	p, err := rule.ParsePacket("10.1.2.3 4.5.6.7 1234 80 6")
	if err != nil {
		t.Fatal(err)
	}
	gotID, _, ok, err := c.Classify(p)
	if err != nil || !ok || gotID != id {
		t.Fatalf("overlay-inserted rule not served: id=%d ok=%v err=%v want id=%d", gotID, ok, err, id)
	}
}

// TestStatsPlainEngineUnchanged: an engine built with no update option keeps
// the three leading fields and carries the overlay fields like any other —
// there is one write path, so there is one line shape.
func TestStatsPlainEngineUnchanged(t *testing.T) {
	_, _, addr := startEngineServer(t, "linear")
	resp := statsRequest(t, addr)
	if !strings.HasPrefix(resp, "stats requests=") {
		t.Fatalf("plain stats line changed shape: %q", resp)
	}
	for _, field := range []string{"overlay=0", "tombstones=0", "compactions=0", "journal-records=0"} {
		if !strings.Contains(resp, field) {
			t.Fatalf("stats %q missing %q", resp, field)
		}
	}
}
