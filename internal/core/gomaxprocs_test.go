package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every trajectory point through BENCH_5 was recorded at GOMAXPROCS=1,
// and on a single-CPU host the default test run never exercises the
// per-node wake locks or the sharded gate with more than one P. These
// wrappers rerun the scheduling-sensitive suites at GOMAXPROCS=4 —
// oversubscribed on a small host, which is exactly what forces
// preemption inside critical sections — so the race detector sees the
// wake and gate protocols under real interleaving. CI runs the
// whole core package again with GOMAXPROCS=4 in the environment; these
// wrappers keep the coverage on any host, whatever the environment says.

// withGOMAXPROCS pins the proc count for the duration of the test,
// restoring the previous value after every subtest (parallel ones
// included) has finished.
func withGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestWakeStormExactResumesGOMAXPROCS4 reruns the wake-storm selectivity
// guard with four Ps: the out-of-lock wake batches and per-node wake
// locks finally run with incrementer, joiners, and drainers truly
// interleaved.
func TestWakeStormExactResumesGOMAXPROCS4(t *testing.T) {
	withGOMAXPROCS(t, 4)
	runWakeStormExactResumes(t)
}

// TestStressRandomizedOpsGOMAXPROCS4 reruns the randomized conformance
// stress mix with four Ps, which is what makes the sharded gate's
// raise/flush/divert dance actually race.
func TestStressRandomizedOpsGOMAXPROCS4(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	withGOMAXPROCS(t, 4)
	runStressRandomizedOps(t)
}

// TestNoLostWakeupsGOMAXPROCS4 reruns the registry-wide lost-wake
// conformance check with four Ps. With the striped level index this is
// the run where registrations and the increment-side stripe sweeps truly
// overlap — at one P the Dekker handshake in stripes.go is never
// actually raced.
func TestNoLostWakeupsGOMAXPROCS4(t *testing.T) {
	withGOMAXPROCS(t, 4)
	runNoLostWakeups(t)
}

// TestCancelStormGOMAXPROCS4 reruns the cancellation storm with four Ps,
// interleaving stripe-side drains (cancelled waiters retiring through
// waitNode.home) with live registrations and wakes.
func TestCancelStormGOMAXPROCS4(t *testing.T) {
	withGOMAXPROCS(t, 4)
	runCancelStormKeepsCounterCorrect(t)
}

// TestStatsConformanceGOMAXPROCS4 reruns the Stats schema conformance
// suite with four Ps: the immediate-check tallies now live partly in
// lock-free striped cells, and exactness must survive real parallelism.
func TestStatsConformanceGOMAXPROCS4(t *testing.T) {
	withGOMAXPROCS(t, 4)
	runStatsConformance(t)
}

// TestStatsConsistentDuringWakeStormGOMAXPROCS4 reruns the snapshot
// hammer — including its satisfied-check exactness assertion — with
// four Ps.
func TestStatsConsistentDuringWakeStormGOMAXPROCS4(t *testing.T) {
	withGOMAXPROCS(t, 4)
	runStatsConsistentDuringWakeStorm(t)
}

// TestCheckIncrementRaceAcrossStripesGOMAXPROCS4 reruns the cross-stripe
// lost-wake regression with four Ps, the configuration where the
// register-vs-collect race actually spans cores.
func TestCheckIncrementRaceAcrossStripesGOMAXPROCS4(t *testing.T) {
	withGOMAXPROCS(t, 4)
	runCheckIncrementRaceAcrossStripes(t)
}

// TestStripeCountCapturedOnce is the regression test for the
// stripe-count capture bug: the shard cells and the striped stats cells
// used to size themselves from runtime.GOMAXPROCS(0) at whichever
// moment each was first touched, so a GOMAXPROCS change between those
// moments produced arrays that disagreed about the stripe space. The
// count must now be captured once per counter; raising and lowering
// GOMAXPROCS mid-run must neither index out of range nor lose counts.
func TestStripeCountCapturedOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, impl := range []Impl{ImplSharded, ImplAtomic} {
		t.Run(string(impl), func(t *testing.T) {
			runtime.GOMAXPROCS(2)
			c := NewImpl(impl)
			var total atomic.Uint64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						c.Increment(1)
						total.Add(1)
						c.Check(1) // exercise the striped fast-check cells too
					}
				}()
			}
			// Thrash the proc count while the stripes are in use: any
			// array sized from a fresh GOMAXPROCS read instead of the
			// captured count would change length under the workers.
			for _, n := range []int{8, 1, 4, 2, 16, 1} {
				runtime.GOMAXPROCS(n)
				time.Sleep(2 * time.Millisecond)
			}
			close(stop)
			wg.Wait()
			if got, want := c.Value(), total.Load(); got != want {
				t.Fatalf("Value() = %d, want %d: counts lost across GOMAXPROCS changes", got, want)
			}
			sp := c.(StatsProvider)
			if s := sp.Stats(); s.Increments != total.Load() {
				t.Fatalf("Increments = %d, want %d", s.Increments, total.Load())
			}
		})
	}
}
