package iface

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// testTrace generates a rule-biased header trace for a small acl1
// classifier.
func testTrace(t testing.TB, n int) []packet.TraceEntry {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 128, 1)
	return classbench.GenerateTrace(set, n, 7)
}

// tracePcap renders a trace as pcap bytes.
func tracePcap(t testing.TB, entries []packet.TraceEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTracePcap(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains a source in batches of batch.
func readAll(t testing.TB, src Source, batch int) []rule.Packet {
	t.Helper()
	var out []rule.Packet
	ps := make([]rule.Packet, batch)
	for {
		n, err := src.ReadBatch(ps)
		out = append(out, ps[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		if n == 0 {
			t.Fatal("ReadBatch returned 0 packets with no error")
		}
	}
}

// TestPcapRoundTrip writes a synthetic trace as pcap and reads it back:
// every 5-tuple must survive identically (in canonical wire form — the
// wire cannot carry ports for port-less protocols), in order. This is the
// property that makes generated pcap fixtures equivalent to the text
// traces they came from.
func TestPcapRoundTrip(t *testing.T) {
	entries := testTrace(t, 1000)
	for i := range entries {
		entries[i].Key = CanonicalKey(entries[i].Key)
	}
	data := tracePcap(t, entries)
	for _, batch := range []int{1, 7, 64, 1024} {
		r, err := NewPcapReader(bytes.NewReader(data), PcapConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, r, batch)
		if len(got) != len(entries) {
			t.Fatalf("batch %d: read %d packets, want %d", batch, len(got), len(entries))
		}
		for i := range got {
			if got[i] != entries[i].Key {
				t.Fatalf("batch %d: packet %d = %+v, want %+v", batch, i, got[i], entries[i].Key)
			}
		}
		if st := r.Stats(); st.Packets != uint64(len(entries)) || st.Skipped != 0 {
			t.Fatalf("batch %d: stats %+v, want %d packets 0 skipped", batch, st, len(entries))
		}
	}
}

// TestPcapICMPPorts pins the convention for port-less transports: an ICMP
// packet decodes with zero ports, matching the rest of the stack.
func TestPcapICMPPorts(t *testing.T) {
	entries := []packet.TraceEntry{{Key: rule.Packet{SrcIP: 0x0a000001, DstIP: 0x0a000002, Proto: packet.ProtoICMP}}}
	r, err := NewPcapReader(bytes.NewReader(tracePcap(t, entries)), PcapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r, 4)
	if len(got) != 1 || got[0] != entries[0].Key {
		t.Fatalf("got %+v, want %+v", got, entries[0].Key)
	}
}

// buildFrame assembles an Ethernet frame with optional VLAN tags around a
// serialized IPv4 packet.
func buildFrame(t testing.TB, key rule.Packet, tags ...uint16) []byte {
	t.Helper()
	ip, err := packet.Serialize(key)
	if err != nil {
		t.Fatal(err)
	}
	return etherWrap(ip, etherTypeIPv4, tags...)
}

// TestPcapVLAN decodes single- and double-tagged frames.
func TestPcapVLAN(t *testing.T) {
	key := rule.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}
	for _, tags := range [][]uint16{
		{etherTypeVLAN},
		{etherTypeQinQ, etherTypeVLAN},
		{etherTypeQinQ2, etherTypeVLAN},
	} {
		var buf bytes.Buffer
		pw, err := NewPcapWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.writeRecord(uint64(time.Second), buildFrame(t, key, tags...)); err != nil {
			t.Fatal(err)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewPcapReader(bytes.NewReader(buf.Bytes()), PcapConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, r, 4)
		if len(got) != 1 || got[0] != key {
			t.Fatalf("tags %v: got %+v, want %v", tags, got, key)
		}
	}
}

// TestPcapSkipsNonIPv4 pins that ARP and IPv6 frames are counted, not
// fatal.
func TestPcapSkipsNonIPv4(t *testing.T) {
	key := rule.Packet{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: packet.ProtoTCP}
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	arp := make([]byte, 42)
	binary.BigEndian.PutUint16(arp[12:14], 0x0806)
	ipv6 := make([]byte, 60)
	binary.BigEndian.PutUint16(ipv6[12:14], 0x86DD)
	runt := []byte{1, 2, 3}
	for _, f := range [][]byte{arp, ipv6, runt} {
		if err := pw.writeRecord(uint64(time.Second), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.writeRecord(2*uint64(time.Second), buildFrame(t, key)); err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewPcapReader(bytes.NewReader(buf.Bytes()), PcapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r, 4)
	if len(got) != 1 || got[0] != key {
		t.Fatalf("got %+v, want just %v", got, key)
	}
	if st := r.Stats(); st.Skipped != 3 {
		t.Fatalf("skipped = %d, want 3", st.Skipped)
	}
}

// TestPcapBigEndianAndNano reads hand-built big-endian and nanosecond
// variants of the format.
func TestPcapBigEndianAndNano(t *testing.T) {
	key := rule.Packet{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 80, DstPort: 443, Proto: packet.ProtoTCP}
	frame := buildFrame(t, key)
	cases := []struct {
		name  string
		magic uint32
		order binary.ByteOrder
		nanos bool
	}{
		{"big-endian micro", pcapMagicMicroLE, binary.BigEndian, false},
		{"little-endian nano", pcapMagicNanoLE, binary.LittleEndian, true},
		{"big-endian nano", pcapMagicNanoLE, binary.BigEndian, true},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		hdr := make([]byte, pcapGlobalHeaderLen)
		tc.order.PutUint32(hdr[0:4], tc.magic)
		tc.order.PutUint16(hdr[4:6], 2)
		tc.order.PutUint16(hdr[6:8], 4)
		tc.order.PutUint32(hdr[16:20], 65535)
		tc.order.PutUint32(hdr[20:24], LinkTypeEthernet)
		buf.Write(hdr)
		rec := make([]byte, pcapRecordHeaderLen)
		tc.order.PutUint32(rec[0:4], 1)
		tc.order.PutUint32(rec[4:8], 42)
		tc.order.PutUint32(rec[8:12], uint32(len(frame)))
		tc.order.PutUint32(rec[12:16], uint32(len(frame)))
		buf.Write(rec)
		buf.Write(frame)

		r, err := NewPcapReader(bytes.NewReader(buf.Bytes()), PcapConfig{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.nanos != tc.nanos {
			t.Fatalf("%s: nanos = %v, want %v", tc.name, r.nanos, tc.nanos)
		}
		got := readAll(t, r, 4)
		if len(got) != 1 || got[0] != key {
			t.Fatalf("%s: got %+v, want %v", tc.name, got, key)
		}
	}
}

// TestPcapRawIPLinkType reads a DLT_RAW capture (IP with no link header).
func TestPcapRawIPLinkType(t *testing.T) {
	key := rule.Packet{SrcIP: 11, DstIP: 22, SrcPort: 33, DstPort: 44, Proto: packet.ProtoUDP}
	ip, err := packet.Serialize(key)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hdr := make([]byte, pcapGlobalHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicMicroLE)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRawIP)
	buf.Write(hdr)
	rec := make([]byte, pcapRecordHeaderLen)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(ip)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(ip)))
	buf.Write(rec)
	buf.Write(ip)

	r, err := NewPcapReader(bytes.NewReader(buf.Bytes()), PcapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r, 4)
	if len(got) != 1 || got[0] != key {
		t.Fatalf("got %+v, want %v", got, key)
	}
}

// TestPcapRejectsBadHeaders pins the fast failures: wrong magic, wrong
// version, unsupported link type, oversized record.
func TestPcapRejectsBadHeaders(t *testing.T) {
	if _, err := NewPcapReader(bytes.NewReader([]byte("not a pcap file at all....")), PcapConfig{}); !errors.Is(err, ErrNotPcap) {
		t.Fatalf("bad magic: err = %v, want ErrNotPcap", err)
	}
	if _, err := NewPcapReader(bytes.NewReader(nil), PcapConfig{}); !errors.Is(err, ErrNotPcap) {
		t.Fatalf("empty: err = %v, want ErrNotPcap", err)
	}

	mk := func(version uint16, link uint32) []byte {
		hdr := make([]byte, pcapGlobalHeaderLen)
		binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicMicroLE)
		binary.LittleEndian.PutUint16(hdr[4:6], version)
		binary.LittleEndian.PutUint32(hdr[20:24], link)
		return hdr
	}
	if _, err := NewPcapReader(bytes.NewReader(mk(3, LinkTypeEthernet)), PcapConfig{}); !errors.Is(err, ErrPcapVersion) {
		t.Fatalf("version: err = %v, want ErrPcapVersion", err)
	}
	if _, err := NewPcapReader(bytes.NewReader(mk(2, 113)), PcapConfig{}); !errors.Is(err, ErrLinkType) {
		t.Fatalf("linktype: err = %v, want ErrLinkType", err)
	}

	// A record claiming more bytes than MaxPacketBytes is corruption, not
	// an allocation request.
	var buf bytes.Buffer
	buf.Write(mk(2, LinkTypeEthernet))
	rec := make([]byte, pcapRecordHeaderLen)
	binary.LittleEndian.PutUint32(rec[8:12], 1<<30)
	buf.Write(rec)
	r, err := NewPcapReader(bytes.NewReader(buf.Bytes()), PcapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var ps [4]rule.Packet
	if _, err := r.ReadBatch(ps[:]); !errors.Is(err, ErrPacketTooLarge) {
		t.Fatalf("oversized record: err = %v, want ErrPacketTooLarge", err)
	}
}

// TestPcapTornTail is the journal-style torn-tail regression: a pcap whose
// final record is cut off — mid record header or mid body — must produce a
// clean *TornTailError naming the truncated record's byte offset, deliver
// every complete packet before it, and never panic or loop.
func TestPcapTornTail(t *testing.T) {
	entries := testTrace(t, 10)
	data := tracePcap(t, entries)

	// Find the offset where the last record starts by replaying offsets:
	// global header, then 16 + frame length per record. Frames here are
	// TCP (54B), UDP (42B) or ICMP (34B); recompute from the data itself.
	offsets := recordOffsets(t, data)
	if len(offsets) != len(entries) {
		t.Fatalf("found %d records, want %d", len(offsets), len(entries))
	}
	last := offsets[len(offsets)-1]

	cases := []struct {
		name string
		cut  int64 // bytes kept
	}{
		{"mid record header", last + 7},
		{"mid body", last + pcapRecordHeaderLen + 5},
		{"empty body", last + pcapRecordHeaderLen},
	}
	for _, tc := range cases {
		r, err := NewPcapReader(bytes.NewReader(data[:tc.cut]), PcapConfig{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []rule.Packet
		ps := make([]rule.Packet, 3)
		var readErr error
		for i := 0; i < 100; i++ {
			n, err := r.ReadBatch(ps)
			got = append(got, ps[:n]...)
			if err != nil {
				readErr = err
				break
			}
		}
		var torn *TornTailError
		if !errors.As(readErr, &torn) {
			t.Fatalf("%s: err = %v, want *TornTailError", tc.name, readErr)
		}
		if torn.Offset != last {
			t.Fatalf("%s: torn offset = %d, want %d", tc.name, torn.Offset, last)
		}
		if len(got) != len(entries)-1 {
			t.Fatalf("%s: delivered %d packets before the tear, want %d", tc.name, len(got), len(entries)-1)
		}
		for i := range got {
			if got[i] != entries[i].Key {
				t.Fatalf("%s: packet %d mismatch", tc.name, i)
			}
		}
	}
}

// recordOffsets walks a well-formed pcap's record boundaries.
func recordOffsets(t testing.TB, data []byte) []int64 {
	t.Helper()
	var offs []int64
	off := int64(pcapGlobalHeaderLen)
	for off < int64(len(data)) {
		offs = append(offs, off)
		if int64(len(data)) < off+pcapRecordHeaderLen {
			t.Fatal("fixture itself is torn")
		}
		incl := binary.LittleEndian.Uint32(data[off+8 : off+12])
		off += pcapRecordHeaderLen + int64(incl)
	}
	return offs
}

// TestPcapPacingRecorded pins the pacing modes against the wall clock:
// recorded-rate replay of gapped fixtures takes at least the recorded
// span, max-rate replay does not.
func TestPcapPacingRecorded(t *testing.T) {
	// 5 packets, 30ms apart: the recorded span is 120ms.
	key := rule.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := pw.WritePacket(uint64(time.Second)+uint64(i)*uint64(30*time.Millisecond), key); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	elapsed := func(rate float64) time.Duration {
		r, err := NewPcapReader(bytes.NewReader(data), PcapConfig{Rate: rate})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		readAll(t, r, 64)
		return time.Since(start)
	}

	if d := elapsed(1); d < 100*time.Millisecond {
		t.Fatalf("recorded-rate replay finished in %v, want >= ~120ms", d)
	}
	if d := elapsed(0); d > 50*time.Millisecond {
		t.Fatalf("max-rate replay took %v, want effectively instant", d)
	}
	// 4x the recorded rate quarters the gaps: >= ~30ms, well under 120ms.
	if d := elapsed(4); d < 25*time.Millisecond || d > 110*time.Millisecond {
		t.Fatalf("4x-rate replay took %v, want ~30ms", d)
	}
}

// TestPcapPacingBatchBoundary pins that pacing never sleeps with delivered
// packets in hand: when the next packet is not yet due, ReadBatch returns
// the partial batch immediately and parks the decoded packet for the next
// call.
func TestPcapPacingBatchBoundary(t *testing.T) {
	key := rule.Packet{SrcIP: 1, DstIP: 2, Proto: packet.ProtoICMP}
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pw.WritePacket(uint64(time.Second)+uint64(i)*uint64(200*time.Millisecond), key); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewPcapReader(bytes.NewReader(buf.Bytes()), PcapConfig{Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]rule.Packet, 8)
	start := time.Now()
	n, err := r.ReadBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); n != 1 || d > 150*time.Millisecond {
		t.Fatalf("first batch: n=%d in %v, want 1 packet immediately", n, d)
	}
}

// TestPcapFragments replays a UDP datagram captured as two IPv4 fragments.
// Only the first carries the UDP header; the second starts with datagram
// payload where ports would be and must decode with zero ports, like any
// port-less packet, not with whatever those four bytes happen to spell.
func TestPcapFragments(t *testing.T) {
	key := rule.Packet{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 4000, DstPort: 53, Proto: packet.ProtoUDP}
	udp := make([]byte, 16) // UDP header + the first 8 payload bytes
	binary.BigEndian.PutUint16(udp[0:2], key.SrcPort)
	binary.BigEndian.PutUint16(udp[2:4], key.DstPort)
	frames := [][]byte{
		etherWrap(ipv4Packet(t, key, 5, 0, udp), etherTypeIPv4),
		etherWrap(ipv4Packet(t, key, 5, 2, []byte{0xca, 0xfe, 0xf0, 0x0d, 1, 2}), etherTypeIPv4, etherTypeVLAN),
	}
	r, err := NewPcapReader(bytes.NewReader(buildPcap(pcapVariants[0], frames)), PcapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r, 4)
	rest := key
	rest.SrcPort, rest.DstPort = 0, 0
	if len(got) != 2 || got[0] != key || got[1] != rest {
		t.Fatalf("got %+v, want %+v then %+v", got, key, rest)
	}
	if st := r.Stats(); st.Skipped != 0 {
		t.Fatalf("skipped = %d, want 0: a short non-first fragment is still a packet", st.Skipped)
	}
}

// BenchmarkPcapReadBatch is the ingest decode layer on its own: an acl1
// Zipf trace (the ingest_dataplane traffic) rendered as an in-memory pcap
// and read back in 256-key batches, nothing classified. One op is one pass
// over the capture; ns/pkt is the figure to compare with the suite's
// iface.pcap_decode_ns_pkt.
func BenchmarkPcapReadBatch(b *testing.B) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		b.Fatal(err)
	}
	set := classbench.Generate(fam, 1000, 1)
	entries := classbench.ZipfTrace(set, 64*1024, 8192, 1.1, 7)
	data := tracePcap(b, entries)
	ps := make([]rule.Packet, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewPcapReader(bytes.NewReader(data), PcapConfig{})
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for err == nil {
			var n int
			n, err = r.ReadBatch(ps)
			total += n
		}
		if err != io.EOF || total != len(entries) {
			b.Fatalf("read %d of %d packets, err = %v", total, len(entries), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(entries)), "ns/pkt")
}

// mixedTrace is 400 keys from a fixed LCG, cycling through TCP, UDP, ICMP
// and GRE (a protocol without a modelled transport header).
func mixedTrace() []packet.TraceEntry {
	protos := []uint8{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP, 47}
	entries := make([]packet.TraceEntry, 400)
	x := uint64(7)
	for i := range entries {
		x = x*6364136223846793005 + 1442695040888963407
		entries[i].Key = rule.Packet{
			SrcIP: uint32(x >> 32), DstIP: uint32(x),
			SrcPort: uint16(x >> 17), DstPort: uint16(x >> 40),
			Proto: protos[i%len(protos)],
		}
	}
	return entries
}

// TestWriteTracePcapBytes pins WriteTracePcap's output on a mixed
// TCP/UDP/ICMP/GRE trace to the bytes it wrote when PcapWriter laid out
// the IPv4 and transport headers itself, before it shared
// packet.SerializeTo with packet.Serialize.
func TestWriteTracePcapBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTracePcap(&buf, mixedTrace()); err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 22824, "fe00482865e22c22320dadad67b303aec04eb58b9101e38bd94e3a995df25076"
	if sum := sha256.Sum256(buf.Bytes()); buf.Len() != wantLen || hex.EncodeToString(sum[:]) != wantSum {
		t.Fatalf("WriteTracePcap wrote %d bytes, sha256 %x; want %d bytes, sha256 %s", buf.Len(), sum, wantLen, wantSum)
	}
}
