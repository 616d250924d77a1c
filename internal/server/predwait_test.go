package server

import (
	"testing"
	"time"

	"monotonic/internal/wire"
)

func TestHelloVersion(t *testing.T) {
	_, addr := startServer(t)

	// A Hello at wire.Version is welcomed and the session does ordinary
	// counter work.
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "neg", Seq: 1, Amount: 2},
		&wire.Frame{Op: wire.OpCheck, Name: "neg", ID: 1, Level: 2},
	)
	if f := c.recvOp(wire.OpWake); f.ID != 1 {
		t.Fatalf("wake id = %d, want 1", f.ID)
	}

	// Any other version is rejected (connection closes).
	for _, v := range []uint64{1, 2, wire.Version + 1} {
		bad := dialRaw(t, addr)
		bad.send(&wire.Frame{Op: wire.OpHello, Seq: v})
		bad.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := wire.Read(bad.br); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

func TestWaitForQuorumParksOneEntry(t *testing.T) {
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)

	// 2-of-3 quorum at level 2. Nothing satisfied yet.
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 7, Pred: wire.PredThreshold, K: 2, Watch: []wire.Watch{
		{Name: "q0", Level: 2}, {Name: "q1", Level: 2}, {Name: "q2", Level: 2},
	}})

	deadline := time.Now().Add(5 * time.Second)
	for s.PredicateWaits() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 1 {
		t.Fatalf("PredicateWaits = %d, want 1 (one entry per session predicate)", n)
	}

	// One counter reaching its level does not flip a 2-of-3 quorum. The
	// Stats reply fences the increment: the server applied it first,
	// and the ack it holds back while the wait is parked leaves with
	// the reply.
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "q0", Seq: 1, Amount: 2},
		&wire.Frame{Op: wire.OpStats, Name: "q0", ID: 1},
	)
	c.recvOp(wire.OpStatsReply)
	if n := s.PredicateWaits(); n != 1 {
		t.Fatalf("PredicateWaits after first arrival = %d, want 1", n)
	}

	// The second arrival flips it: one wake, entry gone.
	c.send(&wire.Frame{Op: wire.OpIncrement, Name: "q2", Seq: 2, Amount: 5})
	if f := c.recvOp(wire.OpWake); f.ID != 7 {
		t.Fatalf("wake id = %d, want 7", f.ID)
	}
	for s.PredicateWaits() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits after wake = %d, want 0", n)
	}
}

func TestWaitForSumAlreadySatisfied(t *testing.T) {
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "s0", Seq: 1, Amount: 6},
		&wire.Frame{Op: wire.OpIncrement, Name: "s1", Seq: 2, Amount: 6},
		&wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: wire.PredSum, Target: 10, Watch: []wire.Watch{
			{Name: "s0"}, {Name: "s1"},
		}},
	)
	if f := c.recvOp(wire.OpWake); f.ID != 1 {
		t.Fatalf("wake id = %d, want 1", f.ID)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits = %d, want 0 (satisfied immediately)", n)
	}
}

func TestWaitForCancel(t *testing.T) {
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 9, Pred: wire.PredSum, Target: 100, Watch: []wire.Watch{
		{Name: "x"}, {Name: "y"},
	}})
	c.send(&wire.Frame{Op: wire.OpWaitForCancel, ID: 9})
	if f := c.recvOp(wire.OpCancelled); f.ID != 9 {
		t.Fatalf("cancelled id = %d, want 9", f.ID)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits after cancel = %d, want 0", n)
	}
	// The counters carry no leftover sentinels: Reset succeeds.
	c.send(&wire.Frame{Op: wire.OpReset, Name: "x", ID: 10})
	if f := c.recvOp(wire.OpResetOK); f.ID != 10 {
		t.Fatalf("reset reply id = %d", f.ID)
	}
}

func TestWaitForSatisfiedBeatsCancelled(t *testing.T) {
	// Satisfy and cancel in the same pipelined burst: the wake must win
	// and no OpCancelled may follow for that id.
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 4, Pred: wire.PredThreshold, K: 1, Watch: []wire.Watch{
		{Name: "race", Level: 1},
	}})
	c.send(
		&wire.Frame{Op: wire.OpIncrement, Name: "race", Seq: 1, Amount: 1},
		&wire.Frame{Op: wire.OpWaitForCancel, ID: 4},
		&wire.Frame{Op: wire.OpStats, Name: "race", ID: 5}, // fence: answered after the cancel
	)
	sawWake := false
	for {
		f := c.recv()
		switch f.Op {
		case wire.OpWake:
			sawWake = true
		case wire.OpCancelled:
			t.Fatal("cancelled frame for a satisfied predicate wait")
		case wire.OpStatsReply:
			if !sawWake {
				t.Fatal("no wake before the post-cancel fence")
			}
			return
		}
	}
}

func TestWaitForProtocolErrors(t *testing.T) {
	_, addr := startServer(t)

	// Bad quorum size closes the connection.
	c3 := dialRaw(t, addr)
	c3.hello(0)
	c3.send(&wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: wire.PredThreshold, K: 3, Watch: []wire.Watch{
		{Name: "a", Level: 1}, {Name: "b", Level: 1},
	}})
	c3.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.Read(c3.br); err == nil {
		t.Fatal("k > n waitfor accepted")
	}

	// Unknown predicate kind closes the connection.
	c4 := dialRaw(t, addr)
	c4.hello(0)
	c4.send(&wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: 99, Watch: []wire.Watch{{Name: "a"}}})
	c4.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.Read(c4.br); err == nil {
		t.Fatal("unknown predicate kind accepted")
	}

	// Duplicate wait id (across check and predicate tables) closes.
	c5 := dialRaw(t, addr)
	c5.hello(0)
	c5.send(
		&wire.Frame{Op: wire.OpCheck, Name: "a", ID: 2, Level: 10},
		&wire.Frame{Op: wire.OpWaitFor, ID: 2, Pred: wire.PredSum, Target: 5, Watch: []wire.Watch{{Name: "a"}}},
	)
	c5.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := wire.Read(c5.br); err != nil {
			return // closed, as required
		}
	}
}

func TestWaitForTeardownUnparks(t *testing.T) {
	// A connection dying with a parked predicate wait must leave no
	// entry and no sentinels behind.
	s, addr := startServer(t)
	c := dialRaw(t, addr)
	c.hello(0)
	c.send(&wire.Frame{Op: wire.OpWaitFor, ID: 1, Pred: wire.PredSum, Target: 100, Watch: []wire.Watch{
		{Name: "td0"}, {Name: "td1"},
	}})
	deadline := time.Now().Add(5 * time.Second)
	for s.PredicateWaits() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.nc.Close()
	for s.PredicateWaits() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits after teardown = %d, want 0", n)
	}
	// Fresh connection can Reset the counters: nothing is parked on them.
	c2 := dialRaw(t, addr)
	c2.hello(0)
	deadline = time.Now().Add(5 * time.Second)
	for {
		c2.send(&wire.Frame{Op: wire.OpReset, Name: "td0", ID: 1})
		f := c2.recv()
		if f.Op == wire.OpResetOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reset after teardown kept failing: %+v", f)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
