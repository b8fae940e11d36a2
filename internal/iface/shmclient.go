package iface

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
)

// ShmClientConfig configures a ring client.
type ShmClientConfig struct {
	// Timeout bounds the handshake wait (for the server to create and
	// initialise the file) and every subsequent wait for ring progress; a
	// serving process that dies without closing the region surfaces as
	// ErrShmStalled after this long. Default 5s.
	Timeout time.Duration
}

// ShmClient submits classification requests through the shared-memory ring:
// a server.ClientV2 over the region's client end. It is safe for concurrent
// use: a mutex serialises callers, preserving the request ring's
// single-producer discipline. The ClassifyBatchInto path performs zero heap
// allocations per call. After a transport error — ErrShmStalled,
// ErrShmClosed, a torn frame — every later call returns that error: the
// stream cannot be trusted to be at a frame boundary again.
type ShmClient struct {
	mu  sync.Mutex
	m   shmMap
	f   *os.File // nil once closed
	cli *server.ClientV2
}

// OpenShmClient attaches to the ring file at path, waiting up to the
// configured timeout for the serving process to create and initialise it.
func OpenShmClient(path string, cfg ShmClientConfig) (*ShmClient, error) {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		c, retry, err := tryAttach(path)
		if err == nil {
			c.cli = server.NewClientV2(newShmConn(&c.m, true, timeout))
			return c, nil
		}
		if !retry || time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tryAttach attempts one attachment. retry=true means the file is absent or
// not yet initialised — worth waiting for; false means it is structurally
// wrong and waiting will not help.
func tryAttach(path string) (*ShmClient, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, true, fmt.Errorf("iface: shm open: %w", err)
	}
	var hdr [20]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, true, fmt.Errorf("iface: shm header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[shmOffMagic:]) != shmMagic {
		f.Close()
		return nil, true, ErrShmHandshake
	}
	if binary.LittleEndian.Uint32(hdr[shmOffVersion:]) != shmVersion {
		f.Close()
		return nil, false, fmt.Errorf("%w: version %d", ErrShmHandshake, binary.LittleEndian.Uint32(hdr[shmOffVersion:]))
	}
	slots := binary.LittleEndian.Uint32(hdr[shmOffSlots:])
	if slots < 2 || slots > shmMaxSlots || slots&(slots-1) != 0 {
		f.Close()
		return nil, false, fmt.Errorf("%w: slot count %d", ErrShmHandshake, slots)
	}
	size := shmFileSize(int(slots))
	st, err := f.Stat()
	if err != nil || st.Size() < int64(size) {
		f.Close()
		return nil, true, ErrShmHandshake
	}
	data, err := mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	c := &ShmClient{f: f, m: shmMap{data: data, size: uint64(slots) * shmSlotBytes}}
	if c.m.state() != shmStateReady {
		c.detach()
		return nil, true, ErrShmHandshake
	}
	return c, false, nil
}

// detach unmaps and closes without touching the shared state (the server
// owns the lifecycle of the region).
func (c *ShmClient) detach() {
	munmapFile(c.m.data)
	c.f.Close()
	c.f = nil
}

// ClassifyBatchInto classifies ps[i] into out[i] through the ring. out must
// be at least as long as ps. Results carry the winning rule's ID and
// priority (the ranges stay on the serving side, as over TCP).
func (c *ShmClient) ClassifyBatchInto(ps []rule.Packet, out []engine.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cli.ClassifyBatchInto(ps, out)
}

// Classify classifies a single packet, returning the winning rule's ID and
// priority.
func (c *ShmClient) Classify(p rule.Packet) (id, priority int, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cli.Classify(p)
}

// Close detaches from the region; later calls fail with ErrShmClosed. The
// server side and its file are untouched — other clients (sequential; the
// ring is single-client) can attach afterwards.
func (c *ShmClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		c.cli.Close()
		c.detach()
	}
	return nil
}
