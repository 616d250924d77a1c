package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"monotonic/internal/core"
	"monotonic/internal/harness"
)

// statsScenario drives one fixed workload against c — immediate checks,
// parked waiters spread over distinct levels, then a releasing increment
// storm — and returns once every waiter has resumed. The same scenario
// runs against every implementation so their Stats snapshots are
// directly comparable.
func statsScenario(c core.Interface, waiters, levels int) {
	for i := 0; i < 3; i++ {
		c.Check(0) // satisfied immediately: counted, never blocks
	}
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		lv := uint64(i%levels) + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Check(lv)
		}()
	}
	// Engine-based implementations expose Suspends, so parking can be
	// awaited exactly instead of guessed with a sleep.
	if p, ok := c.(core.StatsProvider); ok {
		deadline := time.Now().Add(10 * time.Second)
		for p.Stats().Suspends < uint64(waiters) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	} else {
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < levels; i++ {
		c.Increment(1) // one satisfied level per step
	}
	wg.Wait()
}

// perOp converts a loop timing into a per-operation duration.
func perOp(t harness.Timing, iters int) time.Duration {
	return t.Median() / time.Duration(iters)
}

// E21: the unified observability surface — one Stats schema across all
// implementations, and the cost of carrying it on the hot paths.
func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Instrumentation: one Stats schema for every implementation, and its hot-path cost",
		Paper: "Section 7 frames the counter's costs in terms of distinct waited-on levels. This " +
			"experiment checks that the cost model is observable in production at negligible " +
			"price: every implementation reports the same Stats schema, and the probe hook " +
			"costs nothing measurable while disabled.",
		Notes: "Table 1 runs one fixed scenario against every registered implementation and prints " +
			"their Stats verbatim: list, heap, atomic, spin and sharded agree on every " +
			"engine-side field (peak 8, satisfied 8, suspends 64, immediate 3, increments 8, 8 " +
			"broadcasts), the chan design reports its 8 wake-ups as channel closes where the " +
			"others report broadcasts, and the broadcast baseline's columns read in its own " +
			"currency — one round node, one satisfied wake round for the whole storm — exactly " +
			"the herd the section 7 design removes. Table 2: with the probe disabled (one atomic " +
			"pointer load) the increment path costs 29-41ns on the locked designs and " +
			"atomic/spin, 15-16ns on the sharded fast path; a counting probe adds 3-11ns per " +
			"event (1.1-1.7x). Table 3 prices a Stats() snapshot at 39-105ns, spin dearest " +
			"at 93-105ns: the engine designs take " +
			"the engine mutex once, so it is for scrape intervals, not inner loops. Cells in " +
			"Tables 2 and 3 move by 10-30% between same-day runs of identical binaries on a " +
			"shared 2-CPU host, so only larger differences are signal. The instrumentation's own " +
			"cost was priced when it landed (BENCH_4.json against BENCH_3.json): every E19 " +
			"increment-storm median within 6%, at that host's run-to-run noise floor, and the " +
			"packed residue+count cell lets the sharded fast-path tallies ride the existing CAS.",
		Run: func(cfg Config) []*harness.Table {
			waiters, levels := 64, 8
			incIters, reps := 200000, 9
			snapIters := 20000
			if cfg.Quick {
				waiters, levels = 24, 4
				incIters, reps = 20000, 3
				snapIters = 2000
			}

			schema := harness.NewTable(
				"Unified Stats after one fixed scenario ("+harness.I(waiters)+" waiters on "+
					harness.I(levels)+" levels, 3 immediate checks, "+harness.I(levels)+" increments)",
				"impl", "peak levels", "satisfied", "suspends", "immediate", "increments",
				"broadcasts", "chan closes")
			for _, impl := range core.Registry() {
				c := core.NewImpl(impl)
				statsScenario(c, waiters, levels)
				s := c.(core.StatsProvider).Stats()
				schema.Add(string(impl), harness.I(s.PeakLevels), harness.U(s.SatisfiedLevels),
					harness.U(s.Suspends), harness.U(s.ImmediateChecks), harness.U(s.Increments),
					harness.U(s.Broadcasts), harness.U(s.ChannelCloses))
			}

			overhead := harness.NewTable(
				"Increment path, no waiters: probe disabled vs counting probe installed ("+
					harness.I(incIters)+" increments/rep, median of "+harness.I(reps)+")",
				"impl", "probe off", "probe on", "on/off")
			for _, impl := range core.Registry() {
				c := core.NewImpl(impl)
				off := perOp(harness.Measure(reps, func() {
					for i := 0; i < incIters; i++ {
						c.Increment(1)
					}
				}), incIters)
				ps, hasProbe := c.(core.ProbeSetter)
				if !hasProbe {
					overhead.Add(string(impl), harness.Dur(off), "n/a", "n/a")
					continue
				}
				var sink atomic.Uint64
				ps.SetProbe(func(core.Event) { sink.Add(1) })
				on := perOp(harness.Measure(reps, func() {
					for i := 0; i < incIters; i++ {
						c.Increment(1)
					}
				}), incIters)
				ps.SetProbe(nil)
				overhead.Add(string(impl), harness.Dur(off), harness.Dur(on),
					harness.Ratio(float64(on)/float64(off)))
			}

			snap := harness.NewTable(
				"Stats() snapshot cost ("+harness.I(snapIters)+" snapshots/rep, median of "+
					harness.I(reps)+")",
				"impl", "per snapshot")
			for _, impl := range core.Registry() {
				c := core.NewImpl(impl)
				statsScenario(c, waiters, levels) // non-trivial internal state
				p := c.(core.StatsProvider)
				d := perOp(harness.Measure(reps, func() {
					for i := 0; i < snapIters; i++ {
						_ = p.Stats()
					}
				}), snapIters)
				snap.Add(string(impl), harness.Dur(d))
			}

			return []*harness.Table{schema, overhead, snap}
		},
	})
}
