package iface

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// The shared-memory transport is one file-backed mmap region shared by a
// serving process and a co-located client, so a request costs two ring
// traversals instead of a TCP round trip. The region holds a handshake
// header, four cache-line-separated ring cursors and two byte rings:
//
//	offset 0    header: magic, version, slot count, state
//	offset 64   reqTail  — client produces request bytes
//	offset 128  reqHead  — server consumes them
//	offset 192  respTail — server produces response bytes
//	offset 256  respHead — client consumes them
//	offset 384  request ring   (16·N bytes)
//	     + 16·N response ring  (16·N bytes)
//
// Each ring is a byte stream and carries wire-protocol frames (see
// internal/server frame.go), so the frame handler that serves TCP serves the
// ring too, and the client that speaks TCP speaks to it: shmConn is a
// net.Conn over one end of the region. A frame larger than a ring streams
// through it. Each ring has exactly one producer and one consumer, so two
// atomic cursors — free-running byte counts — fully synchronise it: the
// producer's tail store publishes the bytes written before it, the
// consumer's head store releases them. Each cursor sits alone on its cache
// line, so the two *processes* never false-share. The client serialises its
// callers with a mutex; the server runs one handler goroutine.
const (
	shmMagic   uint64 = 0x0031524D4853434E // "NCSHMR1\0", little-endian
	shmVersion uint32 = 2

	shmOffMagic    = 0
	shmOffVersion  = 8
	shmOffSlots    = 12
	shmOffState    = 16
	shmOffReqTail  = 64
	shmOffReqHead  = 128
	shmOffRespTail = 192
	shmOffRespHead = 256
	shmDataOff     = 384

	// shmSlotBytes is the unit of a ring's capacity: each ring holds
	// shmSlotBytes·Slots bytes.
	shmSlotBytes = 16

	shmStateInit   uint32 = 0
	shmStateReady  uint32 = 1
	shmStateClosed uint32 = 2

	// shmMaxSlots bounds the ring size a client will accept from a
	// handshake header, so a corrupt file cannot demand an absurd mapping.
	shmMaxSlots = 1 << 20
)

// ErrShmHandshake is returned when the shared file is not a valid ring
// region (bad magic, version, slot count or size).
var ErrShmHandshake = errors.New("iface: invalid shared-memory ring file")

// ErrShmStalled is returned when the peer stops making progress for longer
// than the configured timeout (e.g. the serving process was killed without
// closing the ring).
var ErrShmStalled = errors.New("iface: shared-memory peer not responding")

// shmFileSize returns the region size for a slot count.
func shmFileSize(slots int) int {
	return shmDataOff + 2*slots*shmSlotBytes
}

// shmMap wraps the mapped region with typed accessors. All cursor loads
// and stores go through sync/atomic on 8-byte-aligned words inside the
// mapping (the mapping is page-aligned and every cursor offset is a
// multiple of 64).
type shmMap struct {
	data []byte
	size uint64 // bytes per ring: shmSlotBytes·Slots, a power of two
}

func (m *shmMap) u64(off int) *uint64 { return (*uint64)(unsafe.Pointer(&m.data[off])) }
func (m *shmMap) u32(off int) *uint32 { return (*uint32)(unsafe.Pointer(&m.data[off])) }

func (m *shmMap) slots() int              { return int(m.size / shmSlotBytes) }
func (m *shmMap) state() uint32           { return atomic.LoadUint32(m.u32(shmOffState)) }
func (m *shmMap) setState(s uint32)       { atomic.StoreUint32(m.u32(shmOffState), s) }
func (m *shmMap) load(off int) uint64     { return atomic.LoadUint64(m.u64(off)) }
func (m *shmMap) store(off int, v uint64) { atomic.StoreUint64(m.u64(off), v) }

// shmBackoff is the wait strategy both sides use on an empty or full ring:
// yield the processor for a while, then sleep in short steps. Busy-waiting
// forever would pin a core per idle ring; sleeping immediately would add
// milliseconds to every round trip.
type shmBackoff struct{ spins int }

func (b *shmBackoff) wait() {
	b.spins++
	if b.spins < 256 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}

// shmRing locates one ring: the offsets of its two cursors and its bytes.
type shmRing struct{ tail, head, data int }

// shmConn is a net.Conn over one end of the region: it reads the ring its
// peer produces (rx) and writes the one its peer consumes (tx). Reads and
// writes may each be issued by one goroutine at a time (the rings are
// SPSC); deadlines and Close may be set from any goroutine.
type shmConn struct {
	m      *shmMap
	rx, tx shmRing
	// stall, when positive, fails a wait that sees no progress for this
	// long with ErrShmStalled: the client's watchdog on a dead server.
	stall     time.Duration
	closed    atomic.Bool
	rdl, wrdl atomic.Int64 // read and write deadlines, Unix ns; 0 = none
}

// newShmConn returns the client end (client=true) or the server end of m.
func newShmConn(m *shmMap, client bool, stall time.Duration) *shmConn {
	rx := shmRing{shmOffReqTail, shmOffReqHead, shmDataOff}
	tx := shmRing{shmOffRespTail, shmOffRespHead, shmDataOff + int(m.size)}
	if client {
		rx, tx = tx, rx
	}
	return &shmConn{m: m, rx: rx, tx: tx, stall: stall}
}

// Read copies whatever the peer has published, up to len(p). Bytes
// published before the region closed are still read.
func (c *shmConn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, ErrShmClosed
	}
	head := c.m.load(c.rx.head)
	if err := c.await(c.rx.tail, head, &c.rdl); err != nil {
		return 0, err
	}
	n := min(uint64(len(p)), c.m.load(c.rx.tail)-head)
	ring, off := c.ring(c.rx, head)
	copy(p[copy(p[:n], ring[off:]):n], ring)
	c.m.store(c.rx.head, head+n)
	return int(n), nil
}

// Write copies as much of p as the ring has room for, publishes it, and
// waits for room for the rest.
func (c *shmConn) Write(p []byte) (int, error) {
	if c.closed.Load() || c.m.state() == shmStateClosed {
		return 0, ErrShmClosed
	}
	tail := c.m.load(c.tx.tail)
	done := 0
	for done < len(p) {
		used := tail - c.m.load(c.tx.head)
		if used >= c.m.size {
			// Full: wait for the consumer's head to move off tail-size.
			if err := c.await(c.tx.head, tail-used, &c.wrdl); err != nil {
				return done, err
			}
			continue
		}
		b := p[done:min(len(p), done+int(c.m.size-used))]
		ring, off := c.ring(c.tx, tail)
		copy(ring, b[copy(ring[off:], b):])
		tail += uint64(len(b))
		c.m.store(c.tx.tail, tail)
		done += len(b)
	}
	return done, nil
}

// ring returns r's bytes and the offset in them of cursor position pos.
func (c *shmConn) ring(r shmRing, pos uint64) ([]byte, int) {
	return c.m.data[r.data : r.data+int(c.m.size)], int(pos & (c.m.size - 1))
}

// await waits until the peer moves the cursor at off away from v. It fails
// with ErrShmClosed once the region or this end is closed,
// os.ErrDeadlineExceeded past the deadline in dl, and ErrShmStalled after
// c.stall without progress.
func (c *shmConn) await(off int, v uint64, dl *atomic.Int64) error {
	var b shmBackoff
	var since time.Time
	for {
		// The state is loaded before the cursor: a server publishes its last
		// bytes before it marks the region closed, so they are never missed.
		closed := c.closed.Load() || c.m.state() == shmStateClosed
		if c.m.load(off) != v {
			return nil
		}
		if closed {
			return ErrShmClosed
		}
		now := time.Now()
		if d := dl.Load(); d != 0 && now.UnixNano() >= d {
			return os.ErrDeadlineExceeded
		}
		if since.IsZero() {
			since = now
		} else if c.stall > 0 && now.Sub(since) > c.stall {
			return ErrShmStalled
		}
		b.wait()
	}
}

// Close marks this end closed: later calls fail with ErrShmClosed and a
// wait in progress returns it. The mapping belongs to ShmServer or ShmClient.
func (c *shmConn) Close() error {
	c.closed.Store(true)
	return nil
}

// LocalAddr and RemoteAddr return nil: a region has no network address.
func (c *shmConn) LocalAddr() net.Addr  { return nil }
func (c *shmConn) RemoteAddr() net.Addr { return nil }

func (c *shmConn) SetDeadline(t time.Time) error      { c.SetReadDeadline(t); return c.SetWriteDeadline(t) }
func (c *shmConn) SetReadDeadline(t time.Time) error  { c.rdl.Store(unixNanos(t)); return nil }
func (c *shmConn) SetWriteDeadline(t time.Time) error { c.wrdl.Store(unixNanos(t)); return nil }

// unixNanos encodes a deadline: 0 means none.
func unixNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}
