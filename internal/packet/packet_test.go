package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"neurocuts/internal/rule"
)

func TestIPv4HeaderRoundTrip(t *testing.T) {
	h := IPv4Header{
		Version: 4, IHL: 5, TOS: 0x10, Length: 40, ID: 0x1234,
		Flags: 2, FragOff: 0, TTL: 64, Protocol: ProtoTCP,
		SrcIP: 0x0A000001, DstIP: 0xC0A80101,
	}
	buf := make([]byte, 20)
	n, err := h.SerializeTo(buf)
	if err != nil || n != 20 {
		t.Fatalf("SerializeTo = %d, %v", n, err)
	}
	var got IPv4Header
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != h.SrcIP || got.DstIP != h.DstIP || got.Protocol != h.Protocol ||
		got.TTL != h.TTL || got.ID != h.ID || got.Length != h.Length || got.Flags != h.Flags {
		t.Errorf("round trip mismatch: %+v vs %+v", got, h)
	}
	// The serialized header must checksum to zero when re-summed with its
	// checksum field included (standard IP checksum property).
	if Checksum(buf) != 0 {
		t.Errorf("header checksum verification failed: %#x", Checksum(buf))
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var h IPv4Header
	if err := h.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short buffer: %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 6 << 4 // IPv6 version nibble
	if err := h.DecodeFromBytes(bad); err != ErrNotIPv4 {
		t.Errorf("non-IPv4: %v", err)
	}
	bad[0] = 4<<4 | 3 // IHL too small
	if err := h.DecodeFromBytes(bad); err != ErrBadIHL {
		t.Errorf("bad IHL: %v", err)
	}
	bad[0] = 4<<4 | 15 // IHL says 60 bytes but buffer is 20
	if err := h.DecodeFromBytes(bad); err != ErrBadIHL {
		t.Errorf("IHL beyond buffer: %v", err)
	}
	if _, err := h.SerializeTo(make([]byte, 3)); err != ErrTruncated {
		t.Errorf("serialize into short buffer: %v", err)
	}
}

func TestTCPHeaderRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 443, DstPort: 51000, Seq: 1, Ack: 2, DataOffset: 5, Flags: 0x18, Window: 1024}
	buf := make([]byte, 20)
	if _, err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var got TCPHeader
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip mismatch: %+v vs %+v", got, h)
	}
	if err := got.DecodeFromBytes(buf[:10]); err != ErrTruncated {
		t.Errorf("short TCP: %v", err)
	}
	if _, err := h.SerializeTo(buf[:10]); err != ErrTruncated {
		t.Errorf("short TCP serialize: %v", err)
	}
}

func TestUDPHeaderRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 53, DstPort: 33000, Length: 8, Checksum: 0xBEEF}
	buf := make([]byte, 8)
	if _, err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var got UDPHeader
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip mismatch: %+v vs %+v", got, h)
	}
	if err := got.DecodeFromBytes(buf[:4]); err != ErrTruncated {
		t.Errorf("short UDP: %v", err)
	}
	if _, err := h.SerializeTo(buf[:4]); err != ErrTruncated {
		t.Errorf("short UDP serialize: %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Example from RFC 1071 discussions: checksum of this 8-byte sequence.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	want := ^uint16(0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 - 0x20000 + 2) // fold twice
	got := Checksum(data)
	// Compute independently by the straightforward method.
	var sum uint32
	for i := 0; i < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	if got != ^uint16(sum) {
		t.Errorf("Checksum = %#x, want %#x (sanity %#x)", got, ^uint16(sum), want)
	}
	// Odd-length input exercises the trailing-byte path.
	_ = Checksum([]byte{0xAB})
}

func TestDecodeSerializeRoundTrip(t *testing.T) {
	keys := []rule.Packet{
		{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1234, DstPort: 80, Proto: ProtoTCP},
		{SrcIP: 0xC0A80101, DstIP: 0x08080808, SrcPort: 53124, DstPort: 53, Proto: ProtoUDP},
		{SrcIP: 0x7F000001, DstIP: 0x7F000001, SrcPort: 0, DstPort: 0, Proto: ProtoICMP},
	}
	for _, k := range keys {
		wire, err := Serialize(k)
		if err != nil {
			t.Fatalf("Serialize(%v): %v", k, err)
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("Decode(%v): %v", k, err)
		}
		if got != k {
			t.Errorf("round trip mismatch: %v vs %v", got, k)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("truncated IP should fail")
	}
	// Valid IP header claiming TCP but with no transport bytes.
	k := rule.Packet{Proto: ProtoTCP, SrcPort: 1, DstPort: 2}
	wire, _ := Serialize(k)
	if _, err := Decode(wire[:20]); err == nil {
		t.Error("truncated TCP should fail")
	}
	k.Proto = ProtoUDP
	wire, _ = Serialize(k)
	if _, err := Decode(wire[:20]); err == nil {
		t.Error("truncated UDP should fail")
	}
}

// TestDecodeIntoReuse decodes into one key slot over and over, as an ingest
// batch does: every field of the slot is rewritten on success — a port-less
// packet after a TCP one must not keep its ports — and the slot is left
// alone on error.
func TestDecodeIntoReuse(t *testing.T) {
	var got rule.Packet
	for i := 0; i < 100; i++ {
		k := rule.Packet{SrcIP: uint32(i), DstIP: uint32(i * 7), SrcPort: uint16(i), DstPort: uint16(i + 1), Proto: ProtoTCP}
		if i%3 == 1 {
			k.SrcPort, k.DstPort, k.Proto = 0, 0, ProtoICMP
		}
		wire, err := Serialize(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(wire, &got); err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("iteration %d mismatch: %v vs %v", i, got, k)
		}
		if err := DecodeInto(wire[:19], &got); err != ErrTruncated || got != k {
			t.Fatalf("iteration %d: truncated decode err = %v, slot %v (want untouched %v)", i, err, got, k)
		}
	}
}

// fragment returns the wire form of key as an IPv4 fragment at the given
// offset (in 8-byte units) followed by payload, with the checksum redone.
func fragment(t testing.TB, key rule.Packet, moreFragments bool, fragOff uint16, payload []byte) []byte {
	t.Helper()
	ip := IPv4Header{Version: 4, IHL: 5, Length: uint16(20 + len(payload)), ID: 7, TTL: 64,
		Protocol: key.Proto, SrcIP: key.SrcIP, DstIP: key.DstIP, FragOff: fragOff}
	if moreFragments {
		ip.Flags = 1
	}
	buf := make([]byte, 20+len(payload))
	if _, err := ip.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf[20:], payload)
	return buf
}

// TestDecodeIntoFragments splits one UDP datagram in two. The first
// fragment carries the UDP header and decodes with its ports; the second
// starts mid-datagram, so its leading bytes are payload, not ports: it
// decodes with zero ports (the ICMP convention) however short it is.
func TestDecodeIntoFragments(t *testing.T) {
	key := rule.Packet{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 4000, DstPort: 53, Proto: ProtoUDP}
	udp := make([]byte, 8, 24)
	if _, err := (&UDPHeader{SrcPort: key.SrcPort, DstPort: key.DstPort, Length: 24}).SerializeTo(udp); err != nil {
		t.Fatal(err)
	}
	first := append(udp, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF) // 16 bytes: offset 0, more fragments
	rest := []byte{0xCA, 0xFE, 0xF0, 0x0D, 1, 2, 3, 4}                   // offset 16 bytes = 2 units
	portless := key
	portless.SrcPort, portless.DstPort = 0, 0

	cases := []struct {
		name string
		wire []byte
		want rule.Packet
	}{
		{"first fragment", fragment(t, key, true, 0, first), key},
		{"second fragment", fragment(t, key, false, 2, rest), portless},
		{"second fragment, 3 payload bytes", fragment(t, key, false, 2, rest[:3]), portless},
		{"tcp fragment, no payload", fragment(t, rule.Packet{Proto: ProtoTCP}, false, 185, nil), rule.Packet{Proto: ProtoTCP}},
	}
	for _, tc := range cases {
		var got rule.Packet
		if err := DecodeInto(tc.wire, &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// A first fragment too short for its transport header is still an error.
	var got rule.Packet
	if err := DecodeInto(fragment(t, key, true, 0, first[:7]), &got); !errors.Is(err, ErrTruncated) {
		t.Errorf("short first fragment: err = %v, want ErrTruncated", err)
	}
}

func TestPropertySerializeDecode(t *testing.T) {
	protos := []uint8{ProtoTCP, ProtoUDP, ProtoICMP}
	f := func(src, dst uint32, sp, dp uint16, protoIdx uint8) bool {
		proto := protos[int(protoIdx)%len(protos)]
		k := rule.Packet{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		if proto == ProtoICMP {
			k.SrcPort, k.DstPort = 0, 0
		}
		wire, err := Serialize(k)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		return err == nil && got == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTextTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := make([]TraceEntry, 50)
	for i := range entries {
		entries[i] = TraceEntry{
			Key: rule.Packet{
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
				Proto: uint8(rng.Intn(256)),
			},
			MatchRule: rng.Intn(100),
		}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("length %d != %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestReadTraceFiveFieldAndErrors(t *testing.T) {
	got, err := ReadTrace(bytes.NewBufferString("# comment\n167772161 167772162 80 443 6\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].MatchRule != -1 || got[0].Key.SrcPort != 80 {
		t.Fatalf("unexpected entries %+v", got)
	}
	if _, err := ReadTrace(bytes.NewBufferString("1 2 3\n")); err == nil {
		t.Error("short line should fail")
	}
	if _, err := ReadTrace(bytes.NewBufferString("a b c d e\n")); err == nil {
		t.Error("non-numeric line should fail")
	}
}

func BenchmarkDecode(b *testing.B) {
	wire, _ := Serialize(rule.Packet{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1234, DstPort: 80, Proto: ProtoTCP})
	var key rule.Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(wire, &key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSerializeToBuffer: SerializeTo writes Serialize's bytes into the
// caller's buffer, and refuses a buffer too short for the packet.
func TestSerializeToBuffer(t *testing.T) {
	for _, proto := range []uint8{ProtoTCP, ProtoUDP, ProtoICMP} {
		key := rule.Packet{SrcIP: 0x0A000001, DstIP: 0xC0A80101, SrcPort: 1234, DstPort: 80, Proto: proto}
		want, err := Serialize(key)
		if err != nil {
			t.Fatal(err)
		}
		var buf [MaxSerializedLen]byte
		n, err := SerializeTo(buf[:], key)
		if err != nil || !bytes.Equal(buf[:n], want) {
			t.Fatalf("proto %d: SerializeTo = % x, %v; Serialize = % x", proto, buf[:n], err, want)
		}
		if _, err := SerializeTo(buf[:len(want)-1], key); err != ErrTruncated {
			t.Errorf("proto %d: short buffer: err %v, want ErrTruncated", proto, err)
		}
	}
}
