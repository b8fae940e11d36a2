//go:build !linux

package iface

import (
	"errors"

	"neurocuts/internal/rule"
)

// ErrAFPacketUnsupported is returned by OpenAFPacket on non-Linux
// platforms.
var ErrAFPacketUnsupported = errors.New("iface: AF_PACKET capture requires linux")

// AFPacketSource is the non-Linux stub of the live capture source; it can
// never be constructed.
type AFPacketSource struct{}

// OpenAFPacket fails with ErrAFPacketUnsupported on non-Linux platforms.
func OpenAFPacket(name string) (*AFPacketSource, error) {
	return nil, ErrAFPacketUnsupported
}

// ReadBatch implements Source; it is unreachable on this platform.
func (s *AFPacketSource) ReadBatch(ps []rule.Packet) (int, error) {
	return 0, ErrAFPacketUnsupported
}

// Stats returns zero counters.
func (s *AFPacketSource) Stats() SourceStats { return SourceStats{} }

// Close is a no-op.
func (s *AFPacketSource) Close() error { return nil }
