package iface_test

import (
	"bytes"
	"io"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/rule"
)

// diffFixture builds a classifier rule set and a pcap rendering of a
// rule-biased trace against it.
func diffFixture(t testing.TB, packets int) (*rule.Set, []byte) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 256, 3)
	entries := classbench.GenerateTrace(set, packets, 11)
	var buf bytes.Buffer
	if err := iface.WriteTracePcap(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return set, buf.Bytes()
}

// TestDifferentialPcapVsDirect is the ingestion correctness gate: packets
// decoded from a pcap replay must classify byte-identically to the same
// 5-tuples fed to the engine directly, across at least two backends and at
// least 12k packets. Any divergence means the decode path changed a key.
func TestDifferentialPcapVsDirect(t *testing.T) {
	const packets = 12_500
	set, data := diffFixture(t, packets)

	// Decode once; the decoded keys are the ground truth both sides see.
	src, err := iface.NewPcapReader(bytes.NewReader(data), iface.PcapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []rule.Packet
	batch := make([]rule.Packet, 512)
	for {
		n, err := src.ReadBatch(batch)
		decoded = append(decoded, batch[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decoded) != packets {
		t.Fatalf("decoded %d packets, want %d", len(decoded), packets)
	}

	for _, backend := range []string{"hicuts", "linear"} {
		eng, err := engine.NewEngine(backend, set, engine.Options{Shards: 1})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		// Direct path: the decoded keys straight into the engine.
		want := make([]engine.Result, len(decoded))
		eng.ClassifyBatch(decoded, want)

		// Replay path: a fresh reader feeding the engine batch by batch,
		// exactly as classifyd's replay loop does.
		src, err := iface.NewPcapReader(bytes.NewReader(data), iface.PcapConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]engine.Result, 512)
		idx := 0
		for {
			n, err := src.ReadBatch(batch)
			if n > 0 {
				eng.ClassifyBatch(batch[:n], got[:n])
				for i := 0; i < n; i++ {
					if got[i] != want[idx+i] {
						t.Fatalf("%s: packet %d: replay %+v != direct %+v (key %v)",
							backend, idx+i, got[i], want[idx+i], batch[i])
					}
				}
				idx += n
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if idx != packets {
			t.Fatalf("%s: replay classified %d packets, want %d", backend, idx, packets)
		}
		eng.Close()
	}
}
