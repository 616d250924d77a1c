package server

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"monotonic/internal/wire"
)

// TestAckRidesOnWake pins the owed ack: with a wait parked on the
// connection, the increment's ack is held back and leaves just ahead of
// the wake that ends the wait.
func TestAckRidesOnWake(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "a", Seq: 1, Amount: 1},
		&wire.Frame{Op: wire.OpCheck, Name: "b", ID: 1, Level: 1},
	)
	c.nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if f, err := wire.Read(c.br); err == nil {
		t.Fatalf("%s frame while the wait is parked, want none", f.Op)
	}

	other := dialRaw(t, addr)
	other.hello(0)
	other.send(&wire.Frame{Op: wire.OpIncrement, Name: "b", Seq: 1, Amount: 1})
	if f := c.recv(); f.Op != wire.OpIncAck || f.Seq != 1 {
		t.Fatalf("first frame %s seq %d, want incack seq 1", f.Op, f.Seq)
	}
	if f := c.recv(); f.Op != wire.OpWake || f.ID != 1 {
		t.Fatalf("second frame %s id %d, want wake id 1", f.Op, f.ID)
	}
}

// TestAckBoundedWhileParked: a parked wait holds acks back for at most
// ackEvery increments.
func TestAckBoundedWhileParked(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	frames := []*wire.Frame{{Op: wire.OpCheck, Name: "never", ID: 1, Level: 1}}
	for seq := uint64(1); seq <= ackEvery+1; seq++ {
		frames = append(frames, &wire.Frame{Op: wire.OpIncrement, Name: "busy", Seq: seq, Amount: 1})
	}
	c.send(frames...)
	if f := c.recv(); f.Op != wire.OpIncAck || f.Seq < ackEvery {
		t.Fatalf("frame %s seq %d, want incack seq >= %d", f.Op, f.Seq, ackEvery)
	}
}

// TestStalledPeerDoesNotBlockReaders: a session that parks many waits
// and never reads fills its own socket with wakes. The reader whose
// increment fired them must hand the excess to that connection's writer
// goroutine and keep serving its own session.
func TestStalledPeerDoesNotBlockReaders(t *testing.T) {
	s, addr := startServer(t)
	a := dialRaw(t, addr)
	a.hello(0)
	baseline := runtime.NumGoroutine()

	b := dialRaw(t, addr)
	b.hello(0)
	const n = 20000
	frames := make([]*wire.Frame, n)
	for i := range frames {
		frames[i] = &wire.Frame{Op: wire.OpCheck, Name: "stall", ID: uint64(i + 1), Level: n}
	}
	b.send(frames...)
	deadline := time.Now().Add(5 * time.Second)
	bc := connWithWaits(s, n)
	for bc == nil {
		if time.Now().After(deadline) {
			t.Fatalf("%d waits never parked", n)
		}
		time.Sleep(time.Millisecond)
		bc = connWithWaits(s, n)
	}
	// A small send buffer makes sure the wakes overrun what the kernel
	// takes, whatever its autotuning.
	if err := bc.nc.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}

	a.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "stall", Seq: 1, Amount: n},
		&wire.Frame{Op: wire.OpStats, Name: "stall", ID: 1},
	)
	a.recvOp(wire.OpStatsReply) // fails after 5s
	bc.wmu.Lock()
	stalled := bc.writing
	bc.wmu.Unlock()
	if !stalled {
		t.Fatal("the stalled session's socket took every wake; the test exercised nothing")
	}

	b.nc.Close()
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline.Add(5 * time.Second)) {
			t.Fatalf("goroutines = %d after the stalled peer closed, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// connWithWaits returns the connection with n waits parked, or nil.
func connWithWaits(s *Server, n int) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.waitMu.Lock()
		k := len(c.waits)
		c.waitMu.Unlock()
		if k == n {
			return c
		}
	}
	return nil
}

// TestFlushAllocs pins the write path's steady-state allocations: a
// wake queued and flushed on a loopback socket reuses the write buffers
// and the dirty list.
func TestFlushAllocs(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	peer, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, peer)
		close(drained)
	}()

	s := New()
	c := s.newConn(nc)
	s.wg.Add(1)
	go c.writeLoop()
	wake := &wire.Frame{Op: wire.OpWake, ID: 1, Level: 1}
	var spare []*conn
	allocs := testing.AllocsPerRun(1000, func() {
		c.send(wake)
		spare = s.flushDirty(spare)
	})
	c.teardown()
	s.wg.Wait()
	peer.Close()
	<-drained
	const ceiling = 0
	if allocs > ceiling {
		t.Fatalf("%.1f allocs per queued-and-flushed wake, want <= %d", allocs, ceiling)
	}
}
