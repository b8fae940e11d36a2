package iface

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// The reference reader: the record-at-a-time pcap reader and the
// struct-filling decoder this package shipped before the windowed, in-place
// decode, kept so the tests below can hold the new reader to them — same
// keys, same Stats, same error, same Offset, call by call. nextKey,
// decodeFrame and refDecoder.Decode are that code verbatim but for the
// non-first-fragment rule, which both sides carry; ReadBatch is the old one
// without its pacing branch (the differential always replays at Rate 0).

type refDecoder struct {
	ip  packet.IPv4Header
	tcp packet.TCPHeader
	udp packet.UDPHeader
}

func (d *refDecoder) Decode(data []byte) (rule.Packet, error) {
	var key rule.Packet
	if err := d.ip.DecodeFromBytes(data); err != nil {
		return key, err
	}
	key.SrcIP = d.ip.SrcIP
	key.DstIP = d.ip.DstIP
	key.Proto = d.ip.Protocol
	if d.ip.FragOff != 0 {
		return key, nil // mid-datagram bytes, not a transport header
	}
	payload := data[d.ip.HeaderLen():]
	switch d.ip.Protocol {
	case packet.ProtoTCP:
		if err := d.tcp.DecodeFromBytes(payload); err != nil {
			return key, fmt.Errorf("tcp: %w", err)
		}
		key.SrcPort = d.tcp.SrcPort
		key.DstPort = d.tcp.DstPort
	case packet.ProtoUDP:
		if err := d.udp.DecodeFromBytes(payload); err != nil {
			return key, fmt.Errorf("udp: %w", err)
		}
		key.SrcPort = d.udp.SrcPort
		key.DstPort = d.udp.DstPort
	default:
	}
	return key, nil
}

type refPcapReader struct {
	r   io.Reader
	cfg PcapConfig

	bigEndian bool
	nanos     bool
	linkType  uint32

	frame  []byte
	recHdr [pcapRecordHeaderLen]byte
	dec    refDecoder

	off    int64
	recOff int64

	stats SourceStats
}

// newRefPcapReader borrows the header parse from the reader under test (the
// global header is not what the differential is about) and starts the
// reference at the first record.
func newRefPcapReader(data []byte, cfg PcapConfig, wrap func(io.Reader) io.Reader) (*refPcapReader, error) {
	p, err := NewPcapReader(bytes.NewReader(data), cfg)
	if err != nil {
		return nil, err
	}
	return &refPcapReader{
		r: wrap(bytes.NewReader(data[pcapGlobalHeaderLen:])), cfg: p.cfg, frame: make([]byte, 2048),
		bigEndian: p.bigEndian, nanos: p.nanos, linkType: p.linkType, off: pcapGlobalHeaderLen,
	}, nil
}

func (p *refPcapReader) u32(b []byte) uint32 {
	if p.bigEndian {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

func (p *refPcapReader) nextKey() (rule.Packet, uint64, error) {
	for {
		p.recOff = p.off
		n, err := io.ReadFull(p.r, p.recHdr[:])
		p.off += int64(n)
		if err == io.EOF {
			return rule.Packet{}, 0, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return rule.Packet{}, 0, &TornTailError{Offset: p.recOff, What: "record header"}
		}
		if err != nil {
			return rule.Packet{}, 0, err
		}
		incl := p.u32(p.recHdr[8:12])
		if int(incl) > p.cfg.MaxPacketBytes {
			return rule.Packet{}, 0, ErrPacketTooLarge
		}
		if cap(p.frame) < int(incl) {
			p.frame = make([]byte, incl)
		}
		body := p.frame[:incl]
		n, err = io.ReadFull(p.r, body)
		p.off += int64(n)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return rule.Packet{}, 0, &TornTailError{Offset: p.recOff, What: "record body"}
		}
		if err != nil {
			return rule.Packet{}, 0, err
		}
		ts := uint64(p.u32(p.recHdr[0:4])) * uint64(time.Second)
		if p.nanos {
			ts += uint64(p.u32(p.recHdr[4:8]))
		} else {
			ts += uint64(p.u32(p.recHdr[4:8])) * uint64(time.Microsecond)
		}
		key, ok := p.decodeFrame(body)
		if !ok {
			p.stats.Skipped++
			continue
		}
		return key, ts, nil
	}
}

func (p *refPcapReader) decodeFrame(frame []byte) (rule.Packet, bool) {
	payload := frame
	if p.linkType == LinkTypeEthernet {
		var ok bool
		payload, ok = ethPayload(frame)
		if !ok {
			return rule.Packet{}, false
		}
	}
	key, err := p.dec.Decode(payload)
	if err != nil {
		return rule.Packet{}, false
	}
	return key, true
}

func (p *refPcapReader) ReadBatch(ps []rule.Packet) (int, error) {
	n := 0
	for n < len(ps) {
		key, _, err := p.nextKey()
		if err != nil {
			if n > 0 && err == io.EOF {
				return n, nil
			}
			return n, err
		}
		ps[n] = key
		n++
		p.stats.Packets++
	}
	return n, nil
}

// sameReadError reports whether two ReadBatch errors are the same outcome:
// torn tails by offset and part, everything else by identity.
func sameReadError(a, b error) bool {
	var ta, tb *TornTailError
	if errors.As(a, &ta) && errors.As(b, &tb) {
		return *ta == *tb
	}
	return a == b
}

// diffPcap replays data through the reader under test and the reference in
// batches of batch and reports the first call where they part: keys, count,
// error, Offset or Stats. It reads on for a few calls past the first error,
// since the reference defines what a retry sees too.
func diffPcap(data []byte, cfg PcapConfig, batch int) error {
	return diffPcapVia(data, cfg, batch, func(r io.Reader) io.Reader { return r })
}

// diffPcapVia is diffPcap with both readers' streams passed through wrap.
func diffPcapVia(data []byte, cfg PcapConfig, batch int, wrap func(io.Reader) io.Reader) error {
	got, gotErr := NewPcapReader(wrap(bytes.NewReader(data)), cfg)
	want, wantErr := newRefPcapReader(data, cfg, wrap)
	if gotErr != nil || wantErr != nil {
		if gotErr != wantErr {
			return fmt.Errorf("open: err = %v, reference %v", gotErr, wantErr)
		}
		return nil
	}
	gp, wp := make([]rule.Packet, batch), make([]rule.Packet, batch)
	for call, failed := 0, 0; failed < 3; call++ {
		gn, gerr := got.ReadBatch(gp)
		wn, werr := want.ReadBatch(wp)
		if gn != wn || !sameReadError(gerr, werr) {
			return fmt.Errorf("call %d: (%d, %v), reference (%d, %v)", call, gn, gerr, wn, werr)
		}
		for i := range gp[:gn] {
			if gp[i] != wp[i] {
				return fmt.Errorf("call %d: key %d = %+v, reference %+v", call, i, gp[i], wp[i])
			}
		}
		if got.off != want.off {
			return fmt.Errorf("call %d: offset %d, reference %d", call, got.off, want.off)
		}
		if got.Stats() != want.stats {
			return fmt.Errorf("call %d: Stats() = %+v, reference %+v", call, got.Stats(), want.stats)
		}
		if gerr != nil {
			failed++
		}
	}
	return nil
}

// pcapVariant is one of the file flavours the reader accepts.
type pcapVariant struct {
	name     string
	magic    uint32
	order    binary.ByteOrder
	linkType uint32
}

var pcapVariants = []pcapVariant{
	{"ethernet", pcapMagicMicroLE, binary.LittleEndian, LinkTypeEthernet},
	{"raw-ip", pcapMagicMicroLE, binary.LittleEndian, LinkTypeRawIP},
	{"big-endian", pcapMagicMicroLE, binary.BigEndian, LinkTypeEthernet},
	{"nanosecond", pcapMagicNanoLE, binary.LittleEndian, LinkTypeEthernet},
}

// buildPcap renders frames as a capture of the given flavour, one record
// each, a microsecond apart.
func buildPcap(v pcapVariant, frames [][]byte) []byte {
	out := make([]byte, pcapGlobalHeaderLen)
	v.order.PutUint32(out[0:4], v.magic)
	v.order.PutUint16(out[4:6], 2)
	v.order.PutUint16(out[6:8], 4)
	v.order.PutUint32(out[16:20], 65535)
	v.order.PutUint32(out[20:24], v.linkType)
	for i, f := range frames {
		var rec [pcapRecordHeaderLen]byte
		v.order.PutUint32(rec[0:4], 1)
		v.order.PutUint32(rec[4:8], uint32(i))
		v.order.PutUint32(rec[8:12], uint32(len(f)))
		v.order.PutUint32(rec[12:16], uint32(len(f)))
		out = append(append(out, rec[:]...), f...)
	}
	return out
}

// ipv4Packet builds an IPv4 packet with the given header length in words,
// fragment offset and transport payload bytes.
func ipv4Packet(t testing.TB, key rule.Packet, ihl uint8, fragOff uint16, payload []byte) []byte {
	t.Helper()
	ip := packet.IPv4Header{Version: 4, IHL: ihl, Length: uint16(int(ihl)*4 + len(payload)), TTL: 64,
		Protocol: key.Proto, SrcIP: key.SrcIP, DstIP: key.DstIP, FragOff: fragOff}
	buf := make([]byte, int(ihl)*4+len(payload))
	if _, err := ip.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf[int(ihl)*4:], payload)
	return buf
}

// etherWrap puts an Ethernet header with the given tag TPIDs and final
// ethertype in front of payload: 12 MAC bytes, then each tag's TPID+TCI,
// then the payload's ethertype — exactly what ethPayload walks.
func etherWrap(payload []byte, ethertype uint16, tags ...uint16) []byte {
	frame := make([]byte, 12, 14+4*len(tags)+len(payload))
	for _, tpid := range tags {
		frame = binary.BigEndian.AppendUint16(frame, tpid)
		frame = binary.BigEndian.AppendUint16(frame, 0x0042) // TCI: VLAN 66
	}
	frame = binary.BigEndian.AppendUint16(frame, ethertype)
	return append(frame, payload...)
}

// mixedPackets is one of everything the decode path branches on, as bare
// IPv4 packets (or bytes that fail to be one): the three transports, IPv4
// options at every header length, both halves of a fragmented datagram,
// truncations at each check, and junk.
func mixedPackets(t testing.TB) [][]byte {
	t.Helper()
	ports := func(sp, dp uint16, n int) []byte {
		b := make([]byte, n)
		binary.BigEndian.PutUint16(b[0:2], sp)
		binary.BigEndian.PutUint16(b[2:4], dp)
		return b
	}
	tcp := rule.Packet{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP}
	udp := rule.Packet{SrcIP: 0xc0a80101, DstIP: 0xc0a80102, SrcPort: 53, DstPort: 5353, Proto: packet.ProtoUDP}
	icmp := rule.Packet{SrcIP: 1, DstIP: 2, Proto: packet.ProtoICMP}
	var out [][]byte
	for _, k := range []rule.Packet{tcp, udp, icmp, {SrcIP: 7, DstIP: 8, Proto: 47}} {
		wire, err := packet.Serialize(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wire)
	}
	for ihl := uint8(6); ihl <= 15; ihl++ { // IPv4 options
		out = append(out, ipv4Packet(t, tcp, ihl, 0, ports(tcp.SrcPort, tcp.DstPort, 20)))
		out = append(out, ipv4Packet(t, udp, ihl, 0, ports(udp.SrcPort, udp.DstPort, 8)))
	}
	out = append(out,
		ipv4Packet(t, udp, 5, 0, ports(udp.SrcPort, udp.DstPort, 16)),           // first fragment
		ipv4Packet(t, udp, 5, 2, []byte{0xca, 0xfe, 0xf0, 0x0d}),                // second: payload where ports would be
		ipv4Packet(t, tcp, 7, 100, nil),                                         // fragment with options and no payload
		ipv4Packet(t, tcp, 5, 0, ports(1, 2, 19)),                               // TCP header one byte short
		ipv4Packet(t, udp, 5, 0, ports(1, 2, 7)),                                // UDP header one byte short
		ipv4Packet(t, tcp, 15, 0, nil)[:40],                                     // IHL runs past the packet
		ipv4Packet(t, icmp, 5, 0, nil)[:19],                                     // IPv4 header one byte short
		[]byte{0x65, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}, // version 6
		[]byte{0x44, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}, // IHL 4
		nil, // zero-length record
	)
	return out
}

// mixedFrames is mixedPackets as link-layer frames for v: on Ethernet each
// packet goes out untagged, VLAN-tagged and QinQ-tagged in turn, beside
// non-IPv4 and runt frames and a tag stack deeper than the walk follows.
func mixedFrames(t testing.TB, v pcapVariant) [][]byte {
	t.Helper()
	pkts := mixedPackets(t)
	if v.linkType == LinkTypeRawIP {
		return pkts
	}
	tagSets := [][]uint16{nil, {etherTypeVLAN}, {etherTypeQinQ, etherTypeVLAN}, {etherTypeQinQ2, etherTypeVLAN}}
	var out [][]byte
	for i, p := range pkts {
		out = append(out, etherWrap(p, etherTypeIPv4, tagSets[i%len(tagSets)]...))
	}
	out = append(out,
		etherWrap(make([]byte, 28), 0x0806),                // ARP
		etherWrap(make([]byte, 40), 0x86dd, etherTypeVLAN), // tagged IPv6
		[]byte{1, 2, 3},                           // runt
		etherWrap(nil, etherTypeIPv4)[:13],        // Ethernet header one byte short
		etherWrap([]byte{0, 0x42}, etherTypeVLAN), // tag cut in half
		etherWrap(pkts[0], etherTypeIPv4, etherTypeQinQ, etherTypeQinQ, etherTypeVLAN, etherTypeVLAN),                // four tags: followed
		etherWrap(pkts[0], etherTypeIPv4, etherTypeQinQ, etherTypeQinQ, etherTypeQinQ, etherTypeVLAN, etherTypeVLAN), // five: not
	)
	return out
}

// diffBatches are the batch sizes every differential runs at: single keys,
// a size that divides nothing evenly, the benchmark's, and one that takes
// more than a window of records per call.
var diffBatches = []int{1, 3, 256, 1000}

// TestPcapReferenceEveryOffset cuts a mixed capture — just over two windows
// long, so records straddle the window's edge at two different phases —
// at every byte offset, in every file flavour, and requires the reader to
// do exactly what the reference does with each stump: deliver the same
// keys, then the same clean EOF or the same TornTailError offset.
func TestPcapReferenceEveryOffset(t *testing.T) {
	for _, v := range pcapVariants {
		t.Run(v.name, func(t *testing.T) {
			var frames [][]byte
			for size := 0; size <= 2*pcapWindow; {
				for _, f := range mixedFrames(t, v) {
					frames = append(frames, f)
					size += pcapRecordHeaderLen + len(f)
				}
			}
			data := buildPcap(v, frames)
			batches := diffBatches
			if testing.Short() || raceEnabled {
				// One goroutine, nothing for the race detector to see, and
				// the sweep is quadratic in the fixture: one batch size.
				batches = batches[1:2]
			}
			for _, batch := range batches {
				for cut := 0; cut <= len(data); cut++ {
					if err := diffPcap(data[:cut], PcapConfig{}, batch); err != nil {
						t.Fatalf("batch %d, cut at %d of %d: %v", batch, cut, len(data), err)
					}
				}
			}
		})
	}
}

// TestPcapReferenceWindowEdge slides the window's edge across a record one
// byte at a time — through the record header, the Ethernet and IPv4 headers
// and the ports — by growing a skipped leading record, and checks every
// position against the reference.
func TestPcapReferenceWindowEdge(t *testing.T) {
	v := pcapVariants[0]
	body := mixedFrames(t, v)
	for pad := 0; pad <= 2*(pcapRecordHeaderLen+len(body[0])); pad++ {
		frames := [][]byte{make([]byte, pad)}
		for len(frames) < 80 {
			frames = append(frames, body[0], body[1]) // TCP then UDP
		}
		data := buildPcap(v, frames)
		for _, batch := range diffBatches {
			if err := diffPcap(data, PcapConfig{}, batch); err != nil {
				t.Fatalf("pad %d, batch %d: %v", pad, batch, err)
			}
		}
	}
}

// TestPcapReferenceLargeRecords covers records that cannot lie in the
// window: a 9000-byte jumbo frame (over the window, under MaxPacketBytes)
// between ordinary ones, at the default and at a tight MaxPacketBytes, and
// a record over the limit, which must stop both readers with
// ErrPacketTooLarge at the same offset.
func TestPcapReferenceLargeRecords(t *testing.T) {
	v := pcapVariants[0]
	small := mixedFrames(t, v)[0]
	jumbo := append(append([]byte{}, small...), make([]byte, 9000-len(small))...)
	huge := append(append([]byte{}, small...), make([]byte, 20_000-len(small))...)
	var frames [][]byte
	for i := 0; i < 30; i++ {
		frames = append(frames, small)
	}
	frames = append(frames, jumbo, small, jumbo, jumbo, small, huge, small)
	data := buildPcap(v, frames)
	for _, max := range []int{0, 16 * 1024, 9000, 8999} {
		for _, batch := range diffBatches {
			if err := diffPcap(data, PcapConfig{MaxPacketBytes: max}, batch); err != nil {
				t.Fatalf("MaxPacketBytes %d, batch %d: %v", max, batch, err)
			}
		}
	}
	r, err := NewPcapReader(bytes.NewReader(data), PcapConfig{MaxPacketBytes: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]rule.Packet, 64)
	n, err := r.ReadBatch(ps)
	if n != 35 || !errors.Is(err, ErrPacketTooLarge) {
		t.Fatalf("ReadBatch = (%d, %v), want 35 keys then ErrPacketTooLarge", n, err)
	}
}

// TestPcapReferenceStreamShapes feeds both readers through streams that
// behave unlike a bytes.Reader: one byte or half the request per Read, and
// io.EOF delivered together with the last bytes instead of after them.
func TestPcapReferenceStreamShapes(t *testing.T) {
	v := pcapVariants[0]
	frames := mixedFrames(t, v)
	frames = append(frames, make([]byte, 5000)) // larger than the window
	frames = append(frames, mixedFrames(t, v)...)
	data := buildPcap(v, frames)
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one byte": iotest.OneByteReader, "half": iotest.HalfReader, "data with EOF": iotest.DataErrReader,
	} {
		for _, cut := range []int{len(data), len(data) - 1, len(data) - 30, pcapWindow + 8, pcapGlobalHeaderLen} {
			for _, batch := range diffBatches {
				if err := diffPcapVia(data[:cut], PcapConfig{}, batch, wrap); err != nil {
					t.Fatalf("%s, cut at %d, batch %d: %v", name, cut, batch, err)
				}
			}
		}
	}
}

// countingReader counts the Read calls that reach the underlying stream.
type countingReader struct {
	r     io.Reader
	calls int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.calls++
	return c.r.Read(p)
}

// TestPcapReadCallsPerWindow pins that replay touches the underlying
// io.Reader once per window, not twice per record: OpenPcap hands
// NewPcapReader the bare *os.File, so each of those calls is a read(2).
// Reading a capture through to its end may issue at most
// ceil(bytes/window)+1 Reads, the +1 being the one that returns io.EOF; the
// record-at-a-time reader issued 2N+1 for N records. (A drain loop that
// calls ReadBatch again after the short last batch pays one more on either
// reader: the EOF inside a non-empty batch is reported as (n, nil).)
func TestPcapReadCallsPerWindow(t *testing.T) {
	for _, v := range pcapVariants {
		var frames [][]byte
		for len(frames) < 2000 {
			frames = append(frames, mixedFrames(t, v)...)
		}
		data := buildPcap(v, frames)
		cr := &countingReader{r: bytes.NewReader(data)}
		r, err := NewPcapReader(cr, PcapConfig{})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		ps := make([]rule.Packet, len(frames)+1) // room to spare: one call reaches the end
		if n, err := r.ReadBatch(ps); err != nil || n == 0 || r.off != int64(len(data)) {
			t.Fatalf("%s: ReadBatch = (%d, %v) at offset %d of %d", v.name, n, err, r.off, len(data))
		}
		bound := (len(data)+pcapWindow-1)/pcapWindow + 1
		if cr.calls > bound {
			t.Errorf("%s: %d Read calls for %d records in %d bytes, want at most %d", v.name, cr.calls, len(frames), len(data), bound)
		}
	}
}
