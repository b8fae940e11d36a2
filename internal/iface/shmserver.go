package iface

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/server"
)

// ShmServerConfig configures a ring server.
type ShmServerConfig struct {
	// Slots is each ring's capacity in 16-byte units, rounded up to a power
	// of two (default 4096: 64 KiB per direction). A frame larger than the
	// ring streams through it.
	Slots int
}

// shmDrainTimeout bounds how long Close waits for a request in flight to be
// answered before it cuts the handler off.
const shmDrainTimeout = 5 * time.Second

// ShmServerStats counts the server side's traffic, from the frame handler's
// counters.
type ShmServerStats struct {
	// Batches is the number of batch frames served.
	Batches uint64
	// Packets is the number of requests served: one per classified packet,
	// plus one per control request (a data-plane client sends none).
	Packets uint64
}

// ShmServer owns the shared file and serves the region's server end with
// the wire protocol's frame handler (server.Server.ServeConn), exactly as a
// TCP connection is served. NewShmServer creates (truncating) the file, maps
// it, and starts the handler; Close drains it, marks the region closed so a
// connected client errors out cleanly, and removes the file.
type ShmServer struct {
	m      shmMap
	f      *os.File
	path   string
	srv    *server.Server
	closed atomic.Bool
	done   chan struct{}
}

// NewShmServer creates the ring file at path and begins serving eng as the
// one table of a server.New server. The caller closes eng after the ring.
func NewShmServer(path string, eng *engine.Engine, cfg ShmServerConfig) (*ShmServer, error) {
	return NewShmServerOn(path, server.New(eng), cfg)
}

// NewShmServerOn creates the ring file at path and begins serving srv's
// tables through it. The ring owns srv: Close shuts srv down, so srv serves
// nothing else. A daemon gives the ring its own server.NewTables over the
// tables its TCP server serves, so both transports administer one set.
func NewShmServerOn(path string, srv *server.Server, cfg ShmServerConfig) (*ShmServer, error) {
	slots := cfg.Slots
	if slots <= 0 {
		slots = 4096
	}
	size := max(2, 1<<bits.Len(uint(slots-1)))
	if size > shmMaxSlots {
		return nil, fmt.Errorf("iface: shm ring slots %d exceed maximum %d", size, shmMaxSlots)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	total := shmFileSize(size)
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, err
	}
	data, err := mmapFile(f, total)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &ShmServer{f: f, path: path, srv: srv, done: make(chan struct{})}
	s.m = shmMap{data: data, size: uint64(size) * shmSlotBytes}
	// The truncate zeroed the region, so the cursors already read 0. Write
	// the handshake header, then flip the state to ready last — the state
	// store is the client's signal that everything before it is valid.
	s.m.store(shmOffMagic, shmMagic)
	atomic.StoreUint32(s.m.u32(shmOffVersion), shmVersion)
	atomic.StoreUint32(s.m.u32(shmOffSlots), uint32(size))
	s.m.setState(shmStateReady)
	go func() {
		defer close(s.done)
		s.srv.ServeConn(newShmConn(&s.m, false, 0))
		// Drained, or the stream broke: nothing serves the region any more.
		s.m.setState(shmStateClosed)
	}()
	return s, nil
}

// Slots returns the ring capacity in 16-byte units per direction.
func (s *ShmServer) Slots() int { return s.m.slots() }

// Path returns the shared file's path.
func (s *ShmServer) Path() string { return s.path }

// Stats returns the server's traffic counters.
func (s *ShmServer) Stats() ShmServerStats {
	st := s.srv.Stats()
	return ShmServerStats{Batches: uint64(st.Batches), Packets: uint64(st.Requests)}
}

// Close shuts the handler down with TCP's drain contract (server.Shutdown):
// a request in flight is answered in full, within shmDrainTimeout. It then
// marks the region closed (a blocked client returns ErrShmClosed rather than
// stalling) and removes the ring file.
func (s *ShmServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shmDrainTimeout)
	err := s.srv.Shutdown(ctx)
	cancel()
	<-s.done
	rerr := os.Remove(s.path)
	if os.IsNotExist(rerr) {
		rerr = nil
	}
	return errors.Join(err, munmapFile(s.m.data), s.f.Close(), rerr)
}
