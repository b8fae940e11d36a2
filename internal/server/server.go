// Package server exposes packet classifiers over any byte stream so that the
// decision trees built by this repository can be queried by external tools
// (or by the bundled cmd/classifyd client). One wire protocol is spoken:
// length-prefixed, CRC-guarded binary frames (layout in frame.go, payloads
// and the request handlers in proto2.go, the client in client2.go). Every
// frame names the table it addresses, requests may be pipelined, and
// responses come back in request order.
// One handler serves every transport: TCP through Listen, any other
// net.Conn (internal/iface's shared-memory ring) through ServeConn.
//
// A server serves the tables of one engine.Tables; a lone engine is served
// as a one-table manager (New). One goroutine serves each connection and
// runs its lookups to completion; a lookup is read-only and shared, and
// updates swap in new snapshots without blocking in-flight lookups.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/telemetry"
)

// MaxBatch bounds the packet count of one OpBatch frame.
const MaxBatch = 65536

// DefaultBatchReadTimeout bounds how long a handler waits for the rest of a
// frame whose first byte has been read. Without it a client that sends a
// header promising a payload and then stalls would pin its connection
// goroutine — and the buffers it holds — forever.
const DefaultBatchReadTimeout = 30 * time.Second

// Server serves classification requests in the framed binary protocol (see
// frame.go) on accepted TCP connections and on any conn handed to ServeConn.
type Server struct {
	// tables is what the server serves: frames addressed to table 0 go to
	// the default table, other frames to the table their header names.
	tables *engine.Tables

	// BatchReadTimeout overrides DefaultBatchReadTimeout when positive; a
	// negative value disables the deadline. Set it before Listen.
	BatchReadTimeout time.Duration

	// TableCreateOptions is the engine option base for tables created over
	// the wire (OpCreateTable), so wire-created tables inherit the daemon's
	// engine defaults (binth, training budget, seed, flow cache, compaction)
	// instead of zero options. Each created engine's TelemetryTable is the
	// table's own name. Set it before Listen.
	TableCreateOptions engine.Options

	// Telemetry, when non-nil, records per-request handling latency into
	// the shared online-telemetry histogram (proto="v2"). Set it before
	// Listen; typically the same instance the engines record into.
	Telemetry *telemetry.Telemetry

	mu       sync.Mutex
	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
	// conns tracks live connections so Shutdown can drain them: handlers
	// waiting for a next request are unblocked immediately, handlers inside
	// a request finish it first, and stragglers are force-closed when the
	// drain context expires.
	conns map[*servedConn]struct{}

	// counters (atomic).
	requests    atomic.Int64
	matches     atomic.Int64
	parseFails  atomic.Int64
	batches     atomic.Int64
	updates     atomic.Int64
	artifactOps atomic.Int64
	tableOps    atomic.Int64
}

// New serves eng as the one table "default" of its own manager
// (engine.SingleTable). It does not take eng over: the caller closes eng
// after the server. A table created over the wire joins that manager and
// lives until it is dropped; nothing else closes it, so a caller whose
// clients create tables serves its own manager with NewTables and closes
// it with CloseAll.
func New(eng *engine.Engine) *Server {
	return NewTables(engine.SingleTable(eng))
}

// NewTables creates a server over t: frames addressed to table 0 serve the
// manager's default table, and frames can address — and administer —
// every table by ID.
func NewTables(t *engine.Tables) *Server {
	return &Server{tables: t}
}

// table resolves the engine a request addresses. Table 0 is the default
// table.
func (s *Server) table(id uint32) (*engine.Engine, error) {
	tab, ok := s.tables.GetByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown table %d", id)
	}
	return tab.Engine, nil
}

// batchReadTimeout returns the effective deadline for reading the body of a
// started request.
func (s *Server) batchReadTimeout() time.Duration {
	switch {
	case s.BatchReadTimeout > 0:
		return s.BatchReadTimeout
	case s.BatchReadTimeout < 0:
		return 0
	default:
		return DefaultBatchReadTimeout
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serve loops run in background goroutines until
// Close is called.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("server: already closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1) // before the spawn, while this loop's count holds Wait off
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn serves the wire protocol on conn — any byte stream: a TCP
// connection, a shared-memory ring — until the peer hangs up, the stream
// breaks or a drain ends it, then closes conn. Stats counts it and Shutdown
// drains it like an accepted connection.
func (s *Server) ServeConn(conn net.Conn) {
	sc := &servedConn{Conn: conn}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.conns == nil {
		s.conns = make(map[*servedConn]struct{})
	}
	s.conns[sc] = struct{}{}
	s.wg.Add(1) // under mu: ordered before the Wait of a Close or Shutdown
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		s.wg.Done()
	}()
	s.handle(sc)
}

// servedConn pairs a connection with its drain state. Draining must never
// cut a request in half: a batch whose header has been read is always fully
// read, classified and answered. The deadline that unblocks an idle
// handler is therefore only armed while the handler sits between requests.
type servedConn struct {
	net.Conn
	mu sync.Mutex
	// busy is true while the handler is inside one request (reading a batch
	// body, classifying, writing responses).
	busy bool
	// drainOnIdle asks the handler to exit once the current request ends.
	drainOnIdle bool
}

// beginRequest marks the handler busy and replaces any drain deadline with
// the body deadline, on both directions: the request's remaining reads (the
// rest of the frame) and its response writes must finish within it,
// so a client that stalls mid-request — or stops reading responses while
// its pipelined requests keep the server writing — cannot pin its handler
// goroutine and the buffers it holds forever. bodyTimeout 0 means
// no deadline.
func (c *servedConn) beginRequest(bodyTimeout time.Duration) {
	c.mu.Lock()
	c.busy = true
	if bodyTimeout > 0 {
		c.Conn.SetDeadline(time.Now().Add(bodyTimeout))
	} else {
		c.Conn.SetDeadline(time.Time{})
	}
	c.mu.Unlock()
}

// endRequest marks the handler idle again and reports whether it should
// exit because a drain started while the request was in flight. When the
// handler stays, the body deadline is disarmed so the idle wait for the
// next request is unbounded again.
func (c *servedConn) endRequest() (draining bool) {
	c.mu.Lock()
	c.busy = false
	draining = c.drainOnIdle
	if !draining {
		c.Conn.SetDeadline(time.Time{})
	}
	c.mu.Unlock()
	return draining
}

// drainGrace is how long an idle connection's handler keeps reading after a
// drain starts. Requests already on the wire (a batch whose header the
// handler has not scanned yet) are picked up and served within the grace;
// truly idle connections exit when it expires.
const drainGrace = 50 * time.Millisecond

// drain asks the connection's handler to exit as soon as it is between
// requests; if it is idle right now, the grace read deadline bounds how
// long it may keep waiting for one last request.
func (c *servedConn) drain() {
	c.mu.Lock()
	c.drainOnIdle = true
	if !c.busy {
		c.Conn.SetReadDeadline(time.Now().Add(drainGrace))
	}
	c.mu.Unlock()
}

// Close stops the listener and waits for in-flight connections to finish.
// Connected idle clients keep their handlers alive, so Close can block
// indefinitely; servers exposed to external clients should prefer Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown gracefully stops the server: it stops accepting connections,
// lets every in-flight request (including a batch mid-classification)
// finish and be answered, unblocks handlers that are idle waiting for a
// next request, and waits for all of them to exit. If the context expires
// first, remaining connections are force-closed before returning the
// context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.drain()
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats summarises the server's request counters. Requests counts every
// classified packet and admin request; the finer-grained counters below
// slice the same traffic by kind for the admin plane's /metrics endpoint.
type Stats struct {
	Requests   int64
	Matches    int64
	ParseFails int64
	// Batches counts OpBatch frames served, each of which contributes its
	// packet count to Requests.
	Batches int64
	// Updates counts live rule updates (insert/delete).
	Updates int64
	// ArtifactOps counts artifact admin requests (save/load).
	ArtifactOps int64
	// TableOps counts table admin requests (list/create/drop-table).
	TableOps int64
	// ActiveConns is the number of currently connected clients.
	ActiveConns int64
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := int64(len(s.conns))
	s.mu.Unlock()
	return Stats{
		Requests:    s.requests.Load(),
		Matches:     s.matches.Load(),
		ParseFails:  s.parseFails.Load(),
		Batches:     s.batches.Load(),
		Updates:     s.updates.Load(),
		ArtifactOps: s.artifactOps.Load(),
		TableOps:    s.tableOps.Load(),
		ActiveConns: active,
	}
}
