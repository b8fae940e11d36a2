package server

import (
	"path/filepath"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// TestStatsExposesUpdaterState: live insert/delete through the protocol
// move the served engine's overlay, tombstone, generation and journal state
// (what the admin plane's /metrics exports) and the server's update counter.
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

	before := eng.UpdaterStats()
	if before.OverlayRules != 0 || before.Tombstones != 0 || before.Rules != 150 || before.Compactions != 0 || before.JournalRecords != 0 {
		t.Fatalf("fresh engine stats %+v", before)
	}

	c := dialV2Test(t, addr.String())
	id, _, err := c.AddRule(0, parseRule(t, "@10.0.0.0/8 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteRule(set.Rule(3).ID); err != nil {
		t.Fatal(err)
	}
	after := eng.UpdaterStats()
	if after.OverlayRules != 1 || after.Tombstones != 1 || after.Rules != 150 || after.JournalRecords != 2 {
		t.Fatalf("stats after updates %+v", after)
	}
	if after.Version <= before.Version {
		t.Fatalf("generation %d did not advance from %d", after.Version, before.Version)
	}
	if st := srv.Stats(); st.Updates != 2 {
		t.Fatalf("server counted %d updates, want 2", st.Updates)
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
