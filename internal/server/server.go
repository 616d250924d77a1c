// Package server implements counterd: a TCP server hosting named
// monotonic counters that any number of processes synchronize on over
// the internal/wire protocol. Counters are backed by the sharded engine
// (internal/core.ShardedCounter), so the in-process semantics —
// monotonicity, wake-by-level, satisfied-beats-cancelled, Reset's misuse
// panic — are the wire semantics; the server adds only sessions (for
// retry-safe increment dedup) and the goroutine discipline:
//
//   - one reader goroutine per connection, parking any number of
//     outstanding waits as one-shot callbacks on the hosted counters'
//     own wake paths (wait.go) — never a goroutine per blocked wait —
//     and writing what its batch queued: replies, acks, and the wakes
//     its increments fired on any connection leave in one non-blocking
//     write per connection when its read buffer drains (write.go);
//   - one writer goroutine per connection that only absorbs
//     backpressure: it finishes the writes a socket would not take, so
//     a peer that stops reading stalls nobody else.
//
// A fan-out of N remote waiters on C connections therefore costs the
// server 2C long-lived goroutines and none per counter, independent of
// N — experiment E22 asserts exactly this bound.
//
// The server speaks exactly one wire dialect, wire.Version; a Hello
// carrying any other version closes the connection. Server-side
// predicate waits (predwait.go): an OpWaitFor frame parks one
// predicate.Cond entry per session predicate, armed via the engine's
// goroutine-free callback hook, with sentinels at pigeonhole frontiers
// on the hosted counters — a quorum over N counters costs one parked
// entry and zero client round trips per non-flipping increment
// (experiment E27 asserts both bounds).
package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"syscall"

	"monotonic/internal/core"
	"monotonic/internal/wire"
)

// ackEvery bounds how many increments a connection applies before the
// server acknowledges even if the read buffer never drains, or while an
// ack waits for a wake to ride on (write.go), so a client pipelining a
// long burst can trim its resend queue.
const ackEvery = 1024

// Server hosts named counters. The zero value is not usable; call New.
type Server struct {
	epoch    uint64 // boot identity, sent in every Welcome; see Epoch
	mu       sync.Mutex
	counters map[string]*hosted
	sessions map[uint64]*session
	nextSess uint64
	conns    map[*conn]struct{}
	lis      net.Listener
	closed   bool
	wg       sync.WaitGroup

	// dmu guards dirty, the connections with frames queued since their
	// last flush (write.go).
	dmu   sync.Mutex
	dirty []*conn
}

// hosted is one named counter.
type hosted struct {
	name string
	c    *core.ShardedCounter
}

// session carries the per-client state that survives reconnects: the
// highest applied increment sequence, which is what makes re-sending an
// unacknowledged tail safe (duplicates are dropped, monotonicity does
// the rest).
type session struct {
	mu      sync.Mutex
	lastSeq uint64
}

// New returns a server with no counters and no sessions. Each server
// instance draws a fresh nonzero boot epoch: hosted state (counter
// values, session dedup tables) lives and dies with the instance, so
// the epoch is the wire-visible name for "the state you resumed into".
func New() *Server {
	epoch := rand.Uint64()
	for epoch == 0 { // zero is the client's "never connected" sentinel
		epoch = rand.Uint64()
	}
	return &Server{
		epoch:    epoch,
		counters: make(map[string]*hosted),
		sessions: make(map[uint64]*session),
		conns:    make(map[*conn]struct{}),
	}
}

// Epoch returns the instance's boot epoch — the session-resume identity
// sent in every Welcome. A client that reconnects and receives a
// different epoch knows its acknowledged state is gone (the node
// restarted), not merely that the link flapped.
func (s *Server) Epoch() uint64 { return s.epoch }

// Serve accepts connections on lis until Close (or a fatal listener
// error), blocking. The listener is adopted: Close closes it.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := s.newConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(2)
		s.mu.Unlock()
		go c.readLoop()
		go c.writeLoop()
	}
}

// Close stops accepting, tears down every connection, and waits for all
// connection goroutines to retire. Hosted counter state (and sessions)
// is discarded with the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	var conns []*conn
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.teardown()
	}
	s.wg.Wait()
	return nil
}

// counter returns the hosted counter with the given name, creating it on
// first reference.
func (s *Server) counter(name string) *hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.counters[name]
	if !ok {
		h = &hosted{name: name, c: core.NewSharded()}
		s.counters[name] = h
	}
	return h
}

// session resolves a Hello: id 0 opens a fresh session; a nonzero id
// resumes it, creating an empty one if the server has never seen it
// (e.g. the server restarted — the client's full resend then rebuilds
// what the restart lost).
func (s *Server) session(id uint64) (uint64, *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 {
		s.nextSess++
		id = s.nextSess
	} else if id > s.nextSess {
		s.nextSess = id
	}
	sess, ok := s.sessions[id]
	if !ok {
		sess = &session{}
		s.sessions[id] = sess
	}
	return id, sess
}

// tryReset zeroes the hosted counter, or explains why not: an armed
// sentinel counts as a suspended waiter, so parked remote waits trip
// the engine's Reset misuse panic, reported here as an error.
func (h *hosted) tryReset() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("counter %q: %v", h.name, p)
		}
	}()
	h.c.Reset()
	return nil
}

// conn is one client connection.
type conn struct {
	srv  *Server
	nc   net.Conn
	sess *session

	// Write side (write.go): frames queue in wq under wmu, and a flush
	// swaps wq with spare instead of allocating. One goroutine at a
	// time owns the socket's write side (writing) and writes until wq
	// is empty, or hands what the socket would not take (rest from
	// restOff on) to the writer goroutine.
	wmu     sync.Mutex
	wcond   *sync.Cond
	wq      []byte
	spare   []byte
	rest    []byte
	restOff int
	writing bool
	dirty   bool // listed in srv.dirty
	wclosed bool
	rc      syscall.RawConn // nil: every write goes through the writer goroutine

	// The non-blocking write in flight (writeNow), owned with writing.
	rawBuf []byte
	rawN   int
	rawFn  func(fd uintptr) bool

	// ackedSeq is the highest increment seq acknowledged on the wire;
	// owedAck, if nonzero, is a newer one whose OpIncAck rides ahead of
	// the next frame queued (write.go). Both guarded by wmu.
	ackedSeq uint64
	owedAck  uint64

	// waits indexes this connection's parked OpCheck and OpWaitFor
	// registrations by client-chosen id (wait.go); nil once torn down.
	// Guarded by waitMu, which is never held while arming or disarming.
	waitMu sync.Mutex
	waits  map[uint64]*wait

	unacked   int // increments applied since the reader last acked
	closeOnce sync.Once
}

// newConn wraps an accepted socket.
func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc, waits: make(map[uint64]*wait)}
	c.wcond = sync.NewCond(&c.wmu)
	if sc, ok := nc.(syscall.Conn); ok {
		c.rc, _ = sc.SyscallConn() // on error rc stays nil
	}
	return c
}

// readLoop parses and executes frames until the connection dies or
// misbehaves; protocol errors close the connection (the client's
// reconnect handshake restores its state).
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer c.teardown()
	// Frames a batch queued before a read error or a protocol error
	// still leave, wakes for other connections included.
	defer c.srv.flushDirty(nil)
	br := bufio.NewReader(&drainReader{c: c})
	for {
		f, err := wire.Read(br)
		if err != nil {
			return
		}
		if err := c.handle(&f); err != nil {
			return
		}
		// Ack applied increments when the pipeline drains (or every
		// ackEvery of them), so one flush carries one ack for a whole
		// burst instead of an ack per increment.
		if c.unacked > 0 && (br.Buffered() == 0 || c.unacked >= ackEvery) {
			c.ack()
			c.unacked = 0
		}
	}
}

// handle executes one frame. A non-nil error means the connection is
// unrecoverable and must close.
func (c *conn) handle(f *wire.Frame) error {
	if c.sess == nil && f.Op != wire.OpHello {
		return fmt.Errorf("server: %s before hello", f.Op)
	}
	switch f.Op {
	case wire.OpHello:
		if f.Seq != wire.Version {
			return fmt.Errorf("server: protocol version %d, want %d", f.Seq, wire.Version)
		}
		id, sess := c.srv.session(f.Session)
		c.sess = sess
		sess.mu.Lock()
		last := sess.lastSeq
		sess.mu.Unlock()
		c.wmu.Lock()
		c.ackedSeq = last
		c.wmu.Unlock()
		c.send(&wire.Frame{Op: wire.OpWelcome, Session: id, Seq: last, Epoch: c.srv.epoch})

	case wire.OpIncrement:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		c.sess.mu.Lock()
		dup := f.Seq <= c.sess.lastSeq
		if !dup {
			c.sess.lastSeq = f.Seq
		}
		c.sess.mu.Unlock()
		if dup {
			return nil // retried increment: monotonic dedup, drop it
		}
		c.unacked++
		if err := apply(h, f.Amount); err != nil {
			// Overflow is a caller bug, not a connection fault: report it
			// on the increment's sequence number and keep serving.
			c.send(&wire.Frame{Op: wire.OpError, ID: f.Seq, Msg: err.Error()})
		}

	case wire.OpCheck:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		level := f.Level
		w := &wait{level: level, holds: func() bool { return level <= h.c.Value() }}
		return c.park(f.ID, w, func(fn func()) (func() bool, bool) { return h.c.Sentinel(level, fn) })

	case wire.OpWaitFor:
		return c.handleWaitFor(f)

	case wire.OpCancel, wire.OpWaitForCancel:
		c.cancelWait(f.ID)

	case wire.OpReset:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		if err := h.tryReset(); err != nil {
			c.send(&wire.Frame{Op: wire.OpError, ID: f.ID, Msg: err.Error()})
		} else {
			c.send(&wire.Frame{Op: wire.OpResetOK, ID: f.ID})
		}

	case wire.OpStats:
		h, err := c.hosted(f.Name)
		if err != nil {
			return err
		}
		st := h.c.Stats()
		c.send(&wire.Frame{Op: wire.OpStatsReply, ID: f.ID, Stats: wire.Stats{
			PeakLevels:         uint64(st.PeakLevels),
			SatisfiedLevels:    st.SatisfiedLevels,
			Broadcasts:         st.Broadcasts,
			ChannelCloses:      st.ChannelCloses,
			Suspends:           st.Suspends,
			ImmediateChecks:    st.ImmediateChecks,
			Increments:         st.Increments,
			SpinRounds:         st.SpinRounds,
			FastPathIncrements: st.FastPathIncrements,
			Flushes:            st.Flushes,
		}})

	default:
		return fmt.Errorf("server: unexpected %s frame from client", f.Op)
	}
	return nil
}

// hosted validates the counter name and resolves it.
func (c *conn) hosted(name string) (*hosted, error) {
	if name == "" || len(name) > wire.MaxName {
		return nil, fmt.Errorf("server: bad counter name %q", name)
	}
	return c.srv.counter(name), nil
}

// apply increments h, converting the overflow panic (a wrap would
// violate monotonicity) into an error for the wire.
func apply(h *hosted, amount uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("counter %q: %v", h.name, p)
		}
	}()
	h.c.Increment(amount)
	return nil
}

// teardown closes the connection once: the socket (unblocking the
// reader), the write queue (retiring the writer), and every pending
// wait this connection registered (so no sentinel outlives its
// connection).
func (c *conn) teardown() {
	c.closeOnce.Do(func() {
		c.nc.Close()
		c.wmu.Lock()
		c.wclosed = true
		c.wcond.Signal()
		c.wmu.Unlock()
		c.dropWaits()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	})
}
