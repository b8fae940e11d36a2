//go:build linux

package iface

import (
	"fmt"
	"net"
	"os"
	"syscall"
	"time"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

const (
	// afPacketPollTimeout bounds how long one empty socket read blocks; it
	// is the ceiling on ReadBatch's added latency for a partially filled
	// batch and on how often a quiet capture loop gets control back.
	afPacketPollTimeout = 10 * time.Millisecond
	// afPacketSnapLen is the per-frame read buffer size.
	afPacketSnapLen = 65536
)

// AFPacketSource captures live frames from a Linux network interface
// through an AF_PACKET raw socket and decodes them into classification
// keys. Opening one requires CAP_NET_RAW; OpenAFPacket surfaces the
// EPERM/EACCES so callers (and the loopback smoke test) can detect the
// missing capability and degrade gracefully.
type AFPacketSource struct {
	fd    int
	frame []byte
	stats SourceStats
}

// htons converts a short to network byte order.
func htons(v uint16) uint16 { return v<<8 | v>>8 }

// OpenAFPacket opens a raw capture socket bound to the named interface
// (every interface when name is empty).
func OpenAFPacket(name string) (*AFPacketSource, error) {
	fd, err := syscall.Socket(syscall.AF_PACKET, syscall.SOCK_RAW, int(htons(syscall.ETH_P_ALL)))
	if err != nil {
		return nil, fmt.Errorf("iface: AF_PACKET socket (CAP_NET_RAW required): %w", err)
	}
	if name != "" {
		ifi, err := net.InterfaceByName(name)
		if err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("iface: interface %q: %w", name, err)
		}
		sa := &syscall.SockaddrLinklayer{Protocol: htons(syscall.ETH_P_ALL), Ifindex: ifi.Index}
		if err := syscall.Bind(fd, sa); err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("iface: bind %q: %w", name, err)
		}
	}
	tv := syscall.NsecToTimeval(afPacketPollTimeout.Nanoseconds())
	if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("setsockopt SO_RCVTIMEO", err)
	}
	return &AFPacketSource{fd: fd, frame: make([]byte, afPacketSnapLen)}, nil
}

// ReadBatch implements Source for live capture: it fills ps with frames
// already queued on the socket and returns as soon as a read would block
// with at least one packet in hand. With no traffic at all it returns
// (0, nil) after the poll timeout so the caller can check for shutdown.
// Non-IPv4 frames are counted in Skipped and passed over.
func (s *AFPacketSource) ReadBatch(ps []rule.Packet) (int, error) {
	n := 0
	for n < len(ps) {
		m, err := syscall.Read(s.fd, s.frame)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK {
			return n, nil
		}
		if err != nil {
			return n, os.NewSyscallError("read", err)
		}
		if m <= 0 {
			return n, nil
		}
		payload, ok := ethPayload(s.frame[:m])
		if !ok {
			s.stats.Skipped++
			continue
		}
		if packet.DecodeInto(payload, &ps[n]) != nil {
			s.stats.Skipped++
			continue
		}
		n++
		s.stats.Packets++
	}
	return n, nil
}

// Stats returns the capture's running counters.
func (s *AFPacketSource) Stats() SourceStats { return s.stats }

// Close closes the capture socket.
func (s *AFPacketSource) Close() error { return syscall.Close(s.fd) }
