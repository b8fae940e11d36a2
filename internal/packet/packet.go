// Package packet converts between wire-format packet headers and the
// 5-tuple keys the classifiers operate on.
//
// The ingest path is DecodeInto: one pass over the bytes that reads only
// the five classified fields and writes the key straight into the caller's
// slot. The IPv4Header, TCPHeader and UDPHeader structs model whole headers
// (DecodeFromBytes / SerializeTo) for building and inspecting packets. Only
// IPv4 with TCP, UDP or ICMP payloads is modelled, because those are the
// only header fields the classification rules inspect.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"neurocuts/internal/rule"
)

// Protocol numbers for the transports this package understands.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("packet: truncated header")
	ErrNotIPv4   = errors.New("packet: not an IPv4 packet")
	ErrBadIHL    = errors.New("packet: invalid IPv4 header length")
)

// IPv4Header is a decoded IPv4 header (the subset of fields relevant to
// classification plus what is needed to re-serialize a valid header).
type IPv4Header struct {
	Version  uint8
	IHL      uint8 // in 32-bit words
	TOS      uint8
	Length   uint16
	ID       uint16
	Flags    uint8
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	SrcIP    uint32
	DstIP    uint32
}

// HeaderLen returns the header length in bytes.
func (h *IPv4Header) HeaderLen() int { return int(h.IHL) * 4 }

// DecodeFromBytes parses an IPv4 header from data in place.
func (h *IPv4Header) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	h.Version = data[0] >> 4
	if h.Version != 4 {
		return ErrNotIPv4
	}
	h.IHL = data[0] & 0x0F
	if h.IHL < 5 || len(data) < h.HeaderLen() {
		return ErrBadIHL
	}
	h.TOS = data[1]
	h.Length = binary.BigEndian.Uint16(data[2:4])
	h.ID = binary.BigEndian.Uint16(data[4:6])
	flagsFrag := binary.BigEndian.Uint16(data[6:8])
	h.Flags = uint8(flagsFrag >> 13)
	h.FragOff = flagsFrag & 0x1FFF
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:12])
	h.SrcIP = binary.BigEndian.Uint32(data[12:16])
	h.DstIP = binary.BigEndian.Uint32(data[16:20])
	return nil
}

// SerializeTo writes the header into buf, which must have room for
// HeaderLen() bytes. The checksum is recomputed. It returns the number of
// bytes written.
func (h *IPv4Header) SerializeTo(buf []byte) (int, error) {
	if h.IHL < 5 {
		h.IHL = 5
	}
	n := h.HeaderLen()
	if len(buf) < n {
		return 0, ErrTruncated
	}
	buf[0] = 4<<4 | h.IHL
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], h.Length)
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	binary.BigEndian.PutUint16(buf[6:8], uint16(h.Flags)<<13|h.FragOff&0x1FFF)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	buf[10], buf[11] = 0, 0
	binary.BigEndian.PutUint32(buf[12:16], h.SrcIP)
	binary.BigEndian.PutUint32(buf[16:20], h.DstIP)
	for i := 20; i < n; i++ {
		buf[i] = 0
	}
	cs := Checksum(buf[:n])
	binary.BigEndian.PutUint16(buf[10:12], cs)
	h.Checksum = cs
	return n, nil
}

// TCPHeader is a decoded TCP header (ports and the fields needed to
// serialize a minimal valid header).
type TCPHeader struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // in 32-bit words
	Flags      uint8
	Window     uint16
	Checksum   uint16
	Urgent     uint16
}

// DecodeFromBytes parses a TCP header from data in place.
func (h *TCPHeader) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(data[0:2])
	h.DstPort = binary.BigEndian.Uint16(data[2:4])
	h.Seq = binary.BigEndian.Uint32(data[4:8])
	h.Ack = binary.BigEndian.Uint32(data[8:12])
	h.DataOffset = data[12] >> 4
	h.Flags = data[13]
	h.Window = binary.BigEndian.Uint16(data[14:16])
	h.Checksum = binary.BigEndian.Uint16(data[16:18])
	h.Urgent = binary.BigEndian.Uint16(data[18:20])
	return nil
}

// SerializeTo writes a 20-byte TCP header into buf.
func (h *TCPHeader) SerializeTo(buf []byte) (int, error) {
	if len(buf) < 20 {
		return 0, ErrTruncated
	}
	if h.DataOffset < 5 {
		h.DataOffset = 5
	}
	binary.BigEndian.PutUint16(buf[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], h.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], h.Seq)
	binary.BigEndian.PutUint32(buf[8:12], h.Ack)
	buf[12] = h.DataOffset << 4
	buf[13] = h.Flags
	binary.BigEndian.PutUint16(buf[14:16], h.Window)
	binary.BigEndian.PutUint16(buf[16:18], h.Checksum)
	binary.BigEndian.PutUint16(buf[18:20], h.Urgent)
	return 20, nil
}

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// DecodeFromBytes parses a UDP header from data in place.
func (h *UDPHeader) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(data[0:2])
	h.DstPort = binary.BigEndian.Uint16(data[2:4])
	h.Length = binary.BigEndian.Uint16(data[4:6])
	h.Checksum = binary.BigEndian.Uint16(data[6:8])
	return nil
}

// SerializeTo writes an 8-byte UDP header into buf.
func (h *UDPHeader) SerializeTo(buf []byte) (int, error) {
	if len(buf) < 8 {
		return 0, ErrTruncated
	}
	binary.BigEndian.PutUint16(buf[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], h.DstPort)
	binary.BigEndian.PutUint16(buf[4:6], h.Length)
	binary.BigEndian.PutUint16(buf[6:8], h.Checksum)
	return 8, nil
}

// Checksum computes the Internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Transport-header truncation errors, built once so that the skip path of an
// ingest loop (a capture full of runt frames) does not allocate per frame.
var (
	errTCPTruncated = fmt.Errorf("tcp: %w", ErrTruncated)
	errUDPTruncated = fmt.Errorf("udp: %w", ErrTruncated)
)

// DecodeInto parses an IPv4 packet starting at data[0] and writes its
// 5-tuple classification key to *key, reading only the five fields the
// classifier inspects. Ports are zero for ICMP and other port-less
// transports, and for non-first fragments (fragment offset != 0), whose
// payload is mid-datagram data rather than a transport header. A first or
// unfragmented TCP/UDP packet too short for its transport header is an
// error. *key is written only on success.
//
// The key goes out through a pointer because that is measurably the cheap
// way to hand back a 13-byte struct: returned by value up a call chain,
// each hop stores it with narrow writes and reloads it with one wide move,
// a store-forwarding stall per hop (see docs/ARCHITECTURE.md, "Ingestion
// sources").
func DecodeInto(data []byte, key *rule.Packet) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	if data[0]>>4 != 4 {
		return ErrNotIPv4
	}
	hl := int(data[0]&0x0F) * 4
	if hl < 20 || len(data) < hl {
		return ErrBadIHL
	}
	proto := data[9]
	// ports is the first four transport bytes: source port in the high
	// half, destination in the low. Only a packet at fragment offset 0 has
	// a transport header there.
	var ports uint32
	if binary.BigEndian.Uint16(data[6:8])&0x1FFF == 0 {
		payload := data[hl:]
		switch proto {
		case ProtoTCP:
			if len(payload) < 20 {
				return errTCPTruncated
			}
			ports = binary.BigEndian.Uint32(payload)
		case ProtoUDP:
			if len(payload) < 8 {
				return errUDPTruncated
			}
			ports = binary.BigEndian.Uint32(payload)
		}
	}
	key.SrcIP = binary.BigEndian.Uint32(data[12:16])
	key.DstIP = binary.BigEndian.Uint32(data[16:20])
	key.SrcPort = uint16(ports >> 16)
	key.DstPort = uint16(ports)
	key.Proto = proto
	return nil
}

// Decode is DecodeInto for callers that want the key by value.
func Decode(data []byte) (rule.Packet, error) {
	var key rule.Packet
	err := DecodeInto(data, &key)
	return key, err
}

// Serialize builds a minimal wire-format IPv4 packet (no payload beyond the
// transport header) realising the given 5-tuple key. The inverse of Decode.
func Serialize(key rule.Packet) ([]byte, error) {
	var transportLen int
	switch key.Proto {
	case ProtoTCP:
		transportLen = 20
	case ProtoUDP:
		transportLen = 8
	default:
		transportLen = 0
	}
	total := 20 + transportLen
	buf := make([]byte, total)
	ip := IPv4Header{
		Version:  4,
		IHL:      5,
		Length:   uint16(total),
		TTL:      64,
		Protocol: key.Proto,
		SrcIP:    key.SrcIP,
		DstIP:    key.DstIP,
	}
	if _, err := ip.SerializeTo(buf[:20]); err != nil {
		return nil, err
	}
	switch key.Proto {
	case ProtoTCP:
		tcp := TCPHeader{SrcPort: key.SrcPort, DstPort: key.DstPort, DataOffset: 5, Flags: 0x02, Window: 65535}
		if _, err := tcp.SerializeTo(buf[20:]); err != nil {
			return nil, err
		}
	case ProtoUDP:
		udp := UDPHeader{SrcPort: key.SrcPort, DstPort: key.DstPort, Length: 8}
		if _, err := udp.SerializeTo(buf[20:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
