package countertest

import (
	"context"
	"net"
	"testing"
	"time"

	"monotonic/counter"
	"monotonic/counter/remote"
	"monotonic/counter/wait"
	"monotonic/internal/server"
)

// RunWirePredicates executes the wire predicate-wait conformance
// battery: everything server-side predicate evaluation promises,
// measured at run time against a loopback counterd started inside the
// test —
//
//   - a k-of-n quorum parks exactly ONE wait entry on the server for
//     the whole session predicate, not one per watched counter;
//   - increments that cannot flip the predicate cost the waiting client
//     ZERO frames in either direction (10^4 of them, counted);
//   - predicates whose counters span two sessions, which no one server
//     entry can evaluate, pass the full predicate battery client-side.
//
// The battery is exported so every transport arrangement (single node,
// cluster member) can assert the same bounds.
func RunWirePredicates(t *testing.T) {
	t.Helper()
	t.Run("QuorumParksOneEntryZeroRTT", testQuorumParksOneEntryZeroRTT)
	t.Run("ClientSidePredicates", testClientSidePredicates)
}

// startLoopback boots a counterd on a loopback listener for the battery.
func startLoopback(t *testing.T) (*server.Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	return s, lis.Addr().String()
}

func dialLoopback(t *testing.T, addr string) *remote.Client {
	t.Helper()
	cl, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func testQuorumParksOneEntryZeroRTT(t *testing.T) {
	const (
		quorum      = 8
		nonFlipping = 10_000
	)
	s, addr := startLoopback(t)
	waiter := dialLoopback(t, addr)
	inc := dialLoopback(t, addr)

	names := make([]string, quorum)
	cs := make([]counter.Interface, quorum)
	for i := range cs {
		names[i] = FreshName("wirequorum")
		cs[i] = waiter.Counter(names[i])
	}
	// All 8 members must reach 1: any increment to an already-satisfied
	// member cannot flip it.
	cond := wait.KOfN(cs, quorum, 1)

	errc := make(chan error, 1)
	go func() { errc <- cond.Wait(context.Background()) }()

	deadline := time.Now().Add(5 * time.Second)
	for s.PredicateWaits() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 1 {
		t.Fatalf("PredicateWaits = %d for an %d-counter quorum, want exactly 1 session entry", n, quorum)
	}
	if st := cond.Stats(); !st.External || st.Armed != 0 {
		t.Fatalf("stats = %+v, want External with zero client-side sentinels", st)
	}

	// 10^4 increments on one member: satisfied-member churn that can
	// never flip a full quorum. The waiter's link must stay silent.
	sent0, recv0 := waiter.WireStats()
	c0 := inc.Counter(names[0])
	for i := 0; i < nonFlipping; i++ {
		c0.Increment(1)
	}
	c0.Check(nonFlipping) // fence: the server has applied every one
	if sent, recv := waiter.WireStats(); sent != sent0 || recv != recv0 {
		t.Fatalf("waiter paid frames for non-flipping increments: sent %d→%d, recv %d→%d",
			sent0, sent, recv0, recv)
	}
	if n := s.PredicateWaits(); n != 1 {
		t.Fatalf("PredicateWaits = %d after non-flipping churn, want still 1", n)
	}

	// Complete the quorum: one wake, entry gone, waiter released.
	for _, name := range names[1:] {
		inc.Counter(name).Increment(1)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quorum predicate never released")
	}
	for s.PredicateWaits() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.PredicateWaits(); n != 0 {
		t.Fatalf("PredicateWaits = %d after the flip, want 0", n)
	}
	if _, recv := waiter.WireStats(); recv != recv0+1 {
		t.Fatalf("waiter received %d frames for the flip, want exactly 1 wake", recv-recv0)
	}
}

// testClientSidePredicates runs RunPredicates with consecutive counters
// drawn from two Clients on one server: every predicate the battery
// builds watches counters of both sessions, so no Client is their
// common host and the combinators evaluate client-side over
// per-counter waits.
func testClientSidePredicates(t *testing.T) {
	_, addr := startLoopback(t)
	cls := [2]*remote.Client{dialLoopback(t, addr), dialLoopback(t, addr)}
	n := 0
	RunPredicates(t, func(t *testing.T) counter.Interface {
		n++
		return cls[n%2].Counter(FreshName("xclient"))
	})
}
