//go:build linux

package iface

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// classifyd reads the skipped-frame count through this method set.
var _ interface{ Stats() SourceStats } = (*AFPacketSource)(nil)

// TestAFPacketLoopbackSmoke captures its own UDP traffic on the loopback
// interface and checks the decoded 5-tuples. Without CAP_NET_RAW (ordinary
// CI users, unprivileged sandboxes) the socket call fails with EPERM/EACCES
// and the test skips — the capability, not the code, is absent.
func TestAFPacketLoopbackSmoke(t *testing.T) {
	src, err := OpenAFPacket("lo")
	if err != nil {
		if errors.Is(err, syscall.EPERM) || errors.Is(err, syscall.EACCES) {
			t.Skipf("no CAP_NET_RAW: %v", err)
		}
		t.Fatal(err)
	}
	defer src.Close()

	// A loopback UDP flow we can recognise: fixed payload, known ports.
	dst, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	conn, err := net.DialUDP("udp4", nil, dst.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wantSrc := uint16(conn.LocalAddr().(*net.UDPAddr).Port)
	wantDst := uint16(dst.LocalAddr().(*net.UDPAddr).Port)

	deadline := time.Now().Add(5 * time.Second)
	ps := make([]rule.Packet, 64)
	for time.Now().Before(deadline) {
		if _, err := conn.Write([]byte("iface loopback smoke")); err != nil {
			t.Fatal(err)
		}
		n, err := src.ReadBatch(ps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p := ps[i]
			if p.Proto == packet.ProtoUDP && p.SrcPort == wantSrc && p.DstPort == wantDst &&
				p.SrcIP == 0x7f000001 && p.DstIP == 0x7f000001 {
				if st := src.Stats(); st.Packets == 0 {
					t.Fatal("stats did not count delivered packets")
				}
				return // captured and decoded our own flow
			}
		}
	}
	t.Fatal("did not capture the loopback flow within the deadline")
}

// TestAFPacketBadInterface pins the error path for a nonexistent interface
// (still requires the socket to open, so it skips without the capability).
func TestAFPacketBadInterface(t *testing.T) {
	_, err := OpenAFPacket("definitely-not-a-real-interface0")
	if err == nil {
		t.Fatal("open of a nonexistent interface succeeded")
	}
	if errors.Is(err, syscall.EPERM) || errors.Is(err, syscall.EACCES) {
		t.Skipf("no CAP_NET_RAW: %v", err)
	}
}
