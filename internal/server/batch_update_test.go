package server

import (
	"encoding/binary"
	"strings"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// startEngineServer serves an engine.Engine so the batch and live-update
// request forms are available.
func startEngineServer(t *testing.T, backend string) (*engine.Engine, *rule.Set, string) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 1)
	eng, err := engine.NewEngine(backend, set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, set, addr.String()
}

// parseRule parses a ClassBench rule line; only the ranges travel on the wire.
func parseRule(t *testing.T, line string) rule.Rule {
	t.Helper()
	r, err := rule.ParseClassBenchLine(line)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBatchRequest(t *testing.T) {
	eng, set, addr := startEngineServer(t, "hicuts")
	c := dialV2Test(t, addr)

	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 200, 9) {
		packets = append(packets, e.Key)
	}
	results, err := c.ClassifyBatch(packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(packets) {
		t.Fatalf("got %d results for %d packets", len(results), len(packets))
	}
	for i, p := range packets {
		want, wantOK := eng.Classify(p)
		if results[i].OK != wantOK {
			t.Fatalf("packet %d: ok=%v, want %v", i, results[i].OK, wantOK)
		}
		if wantOK && results[i].Rule.Priority != want.Priority {
			t.Fatalf("packet %d: priority %d, want %d", i, results[i].Rule.Priority, want.Priority)
		}
	}
}

func TestBatchSizeLimit(t *testing.T) {
	_, _, addr := startEngineServer(t, "linear")
	c := dialV2Test(t, addr)
	// ClientV2.ClassifyBatch splits at MaxBatch, so the oversized count is
	// written by hand: the server must refuse it from the count alone.
	_, err := c.roundTrip(binary.LittleEndian.AppendUint32(c.begin(OpBatch), MaxBatch+1))
	if err == nil || !strings.Contains(err.Error(), "batch size must be in") {
		t.Errorf("oversized batch: err = %v, want the size-limit error", err)
	}
	// An OpError keeps the connection.
	if err := c.Ping(); err != nil {
		t.Errorf("connection unusable after the size-limit error: %v", err)
	}
}

// TestLiveRuleUpdate drives the add/del endpoints end to end: an inserted
// top-priority wildcard must win every lookup, and deleting it must restore
// the previous behaviour, with the version advancing on each update.
func TestLiveRuleUpdate(t *testing.T) {
	eng, _, addr := startEngineServer(t, "linear")
	c := dialV2Test(t, addr)

	p := rule.Packet{SrcIP: 99, DstIP: 98, SrcPort: 97, DstPort: 96, Proto: 250}
	beforeID, beforePrio, beforeOK, err := c.Classify(p)
	if err != nil {
		t.Fatal(err)
	}

	// add: full wildcard in ClassBench format at the top priority slot.
	wildcard := parseRule(t, "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00")
	id, v1, err := c.AddRule(0, wildcard)
	if err != nil {
		t.Fatal(err)
	}
	gotID, _, ok, err := c.Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || gotID != id {
		t.Fatalf("after add: got (id=%d, ok=%v), want inserted id %d", gotID, ok, id)
	}

	v2, err := c.DeleteRule(id)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("version did not advance: %d -> %d", v1, v2)
	}
	afterID, afterPrio, afterOK, err := c.Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	if afterOK != beforeOK || afterID != beforeID || afterPrio != beforePrio {
		t.Fatalf("after delete: (id=%d prio=%d ok=%v), want original (id=%d prio=%d ok=%v)",
			afterID, afterPrio, afterOK, beforeID, beforePrio, beforeOK)
	}
	if eng.Version() != v2 {
		t.Errorf("engine version %d != client-visible %d", eng.Version(), v2)
	}

	// Deleting again must fail cleanly.
	if _, err := c.DeleteRule(id); err == nil {
		t.Error("second delete should report an error")
	}
}
