package iface_test

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
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

// TestDifferentialShmVsTCP pins the shared-memory transport against wire
// protocol v2 over TCP: same engine, same packets, the ring and the socket
// must return identical (id, priority, ok) triples.
func TestDifferentialShmVsTCP(t *testing.T) {
	fam, err := classbench.FamilyByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 256, 5)
	entries := classbench.GenerateTrace(set, 4096, 13)
	ps := make([]rule.Packet, len(entries))
	for i, e := range entries {
		ps[i] = e.Key
	}

	eng, err := engine.NewEngine("linear", set, engine.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// TCP side: a real server on loopback, protocol v2 client.
	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := server.DialV2(context.Background(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	// Shm side: a ring over the same engine.
	ring, err := iface.NewShmServer(filepath.Join(t.TempDir(), "ring"), eng, iface.ShmServerConfig{Slots: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	shm, err := iface.OpenShmClient(ring.Path(), iface.ShmClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer shm.Close()

	viaTCP, err := tcp.ClassifyBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	viaShm, err := shm.ClassifyBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaTCP) != len(ps) || len(viaShm) != len(ps) {
		t.Fatalf("result lengths: tcp=%d shm=%d, want %d", len(viaTCP), len(viaShm), len(ps))
	}
	for i := range ps {
		a, b := viaTCP[i], viaShm[i]
		if a.OK != b.OK || a.Rule.ID != b.Rule.ID || a.Rule.Priority != b.Rule.Priority {
			t.Fatalf("packet %d (%v): tcp id=%d prio=%d ok=%v, shm id=%d prio=%d ok=%v",
				i, ps[i], a.Rule.ID, a.Rule.Priority, a.OK, b.Rule.ID, b.Rule.Priority, b.OK)
		}
	}
}
