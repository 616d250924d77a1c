package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"monotonic/counter"
	"monotonic/counter/wait"
)

// local-wave: two driver goroutines advance a ragged pipeline over two
// stage counters (paper §5.1: each step Checks the peer's stage, then
// Increments its own) and tally every step on one Sharded counter, which
// they poll with already-satisfied Checks. Thousands of waiter goroutines
// park at spread levels ahead of the stages, and predicate goroutines
// park KOfN and Sum Conds over both stages; the wave releases them and
// each re-parks ahead.
const (
	lwWaiters       = 2048 // half on each stage
	lwPreds         = 64
	lwMaxLag        = 64   // a driver runs up to this many steps ahead of its peer
	lwMaxSpread     = 8192 // waiters park up to this many levels ahead
	lwPredSpread    = 4096
	lwSharedQuantum = 256 // shared waiters round their level up to a multiple of this
	lwRing          = 1 << 17
)

type localWave struct {
	r      *runner
	stages [2]*counter.Counter
	rings  [2]*stampRing
	done   [2]atomic.Uint64 // highest step whose Increment returned
	tally  *counter.Sharded
	woke   [2]atomic.Bool // set by the traced phase's probe on a wake

	lags    []uint64
	spreads []uint64
	preds   []predShape // spreads in the threshold/target field

	ctx    context.Context
	cancel context.CancelFunc
	// dctx releases a driver blocked on its peer's stage once the other
	// driver has stopped.
	dctx    context.Context
	dcancel context.CancelFunc
	wwg     sync.WaitGroup              // waiters and predicate goroutines
	dwg     sync.WaitGroup              // drivers
	pending []atomic.Uint64             // each waiter's parked level<<8 | stage (0: none)
	armed   []atomic.Pointer[armedPred] // each predicate goroutine's parked Cond (nil: none)
	conds   []atomic.Pointer[wait.Cond]
	acc     condAcc
	steps   [2]uint64 // final step of each driver, set when it stops
}

func newLocalWave(r *runner) workload {
	rng := r.seed
	w := &localWave{r: r}
	// A long lag table, so every seed's pipeline sees the same mix of
	// tight and loose coupling.
	for i := 0; i < 1<<16; i++ {
		w.lags = append(w.lags, 1+splitmix(&rng)%lwMaxLag)
	}
	for i := 0; i < 4096; i++ {
		w.spreads = append(w.spreads, 1+splitmix(&rng)%lwMaxSpread)
	}
	for i := 0; i < 4096; i++ {
		w.preds = append(w.preds, predMix(i, 1+splitmix(&rng)%lwPredSpread))
	}
	// The harness's own tables exist before setup, so the memory the
	// counters hold can be told apart from them.
	for i := range w.rings {
		w.rings[i] = newStampRing(lwRing)
	}
	w.pending = make([]atomic.Uint64, lwWaiters)
	w.armed = make([]atomic.Pointer[armedPred], lwPreds)
	w.conds = make([]atomic.Pointer[wait.Cond], lwPreds)
	return w
}

func (w *localWave) opName() string { return "pipeline steps" }

func (w *localWave) describe() string {
	return fmt.Sprintf("local-wave: in-process only; 2 drivers over 2 counter.Counter stages + 1 counter.Sharded tally; "+
		"%d parked waiters (%s, even ones shared at multiples of %d), %d parked KOfN/Sum predicates; %s",
		lwWaiters, spreadNote("spread", w.spreads), lwSharedQuantum, lwPreds, spreadNote("lag", w.lags))
}

func (w *localWave) setup() error {
	w.ctx, w.cancel = context.WithCancel(context.Background())
	for i := range w.stages {
		w.stages[i] = counter.New()
	}
	w.tally = counter.NewSharded()
	var parked sync.WaitGroup
	parked.Add(lwWaiters + lwPreds)
	for i := 0; i < lwWaiters; i++ {
		w.wwg.Add(1)
		go w.waiter(i, &parked)
	}
	for i := 0; i < lwPreds; i++ {
		w.wwg.Add(1)
		go w.pred(i, &parked)
	}
	parked.Wait()
	// Setup ends once every waiter has suspended and every Cond is armed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := sumStats(w.stages[0].Stats(), w.stages[1].Stats())
		armed := 0
		for i := range w.conds {
			if c := w.conds[i].Load(); c != nil && c.Stats().Waiters > 0 {
				armed++
			}
		}
		if s.Suspends >= lwWaiters && armed == lwPreds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("parked %d of %d waiters, armed %d of %d predicates", s.Suspends, lwWaiters, armed, lwPreds)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// waiter i parks on stage i%2 at a spread level ahead of its frontier,
// records its release, and parks again.
func (w *localWave) waiter(i int, parked *sync.WaitGroup) {
	defer w.wwg.Done()
	j := i % 2
	first := true
	for k := i * 7; ; k++ {
		level := w.rings[j].issued.Load() + w.spreads[k%len(w.spreads)]
		if i%4 < 2 {
			level = (level + lwSharedQuantum - 1) / lwSharedQuantum * lwSharedQuantum
		}
		w.pending[i].Store(level<<8 | uint64(j))
		if first {
			parked.Done()
			first = false
		}
		err := w.stages[j].CheckContext(w.ctx, level)
		t := now()
		w.pending[i].Store(0)
		if err != nil {
			return
		}
		w.r.wake(w.r.cur.Load(), "wake", w.rings[j], level, t)
	}
}

// predMix is the i-th predicate shape of a workload's table: in fixed
// proportion a Sum, a 1-of-2 and a 2-of-2 KOfN, so the seed varies the
// levels but not the mix. spread goes in the threshold field.
func predMix(i int, spread uint64) predShape {
	return predShape{sum: i%3 == 0, k: 1 + i%3/2, threshold: spread}
}

// pred i parks Conds over both stages: KOfN at a threshold ahead of the
// leading stage, or Sum at a target ahead of the current sum.
func (w *localWave) pred(i int, parked *sync.WaitGroup) {
	defer w.wwg.Done()
	cs := []counter.Interface{w.stages[0], w.stages[1]}
	first := true
	for k := i; ; k += lwPreds {
		p := w.preds[k%len(w.preds)]
		a, b := w.rings[0].issued.Load(), w.rings[1].issued.Load()
		var c *wait.Cond
		if p.sum {
			p.target = a + b + p.threshold
			c = wait.Sum(cs...).AtLeast(p.target)
		} else {
			p.threshold += max(a, b)
			c = wait.KOfN(cs, p.k, p.threshold)
		}
		w.conds[i].Store(c)
		w.armed[i].Store(&armedPred{shape: p, ctrs: [2]int{0, 1}})
		if first {
			parked.Done()
			first = false
		}
		err := c.Wait(w.ctx)
		t := now()
		w.armed[i].Store(nil)
		if err != nil {
			return
		}
		w.r.predWake(w.r.cur.Load(), p, w.rings[:], t)
		w.acc.released(c)
	}
}

func (w *localWave) start() {
	w.dctx, w.dcancel = context.WithCancel(context.Background())
	for d := 0; d < 2; d++ {
		w.dwg.Add(1)
		go func(d int) {
			defer w.dwg.Done()
			w.r.guard("local-wave driver", func() { w.drive(d) })
		}(d)
	}
}

// drive runs driver d's pipeline steps until the run stops. A traced
// phase makes the same calls, each inside a span.
func (w *localWave) drive(d int) {
	peer := 1 - d
	own, other, ring := w.stages[d], w.stages[peer], w.rings[d]
	var tallied uint64
	probed := false
	var k uint64
	defer func() { w.steps[d] = k }()
	for !w.r.stop.Load() {
		ph := w.r.cur.Load()
		tr := ph.tracer(d)
		if tr != nil && !probed {
			// Tells the traced Increments that release a waiter apart.
			probed = true
			flag := &w.woke[d]
			own.SetProbe(func(e counter.Event) {
				if e.Kind == counter.EventWake {
					flag.Store(true)
				}
			})
		}
		next := k + 1
		var lvl uint64
		if lag := w.lags[next%uint64(len(w.lags))]; next > lag {
			lvl = next - lag
		}
		tr.beginOp(next<<1 | uint64(d))
		root, _ := tr.open("step", -1)
		// A hit when the peer's Increment to lvl has already returned.
		name := "core.check"
		if w.done[peer].Load() >= lvl {
			name = "core.check_hit_list"
		}
		h, st := tr.open(name, root)
		err := other.CheckContext(w.dctx, lvl)
		tr.close(name, h, st)
		if err != nil {
			return
		}
		h, st = tr.open("core.inc", root)
		ring.begin(next, st)
		w.woke[d].Store(false)
		own.Increment(1)
		name = "core.inc"
		if w.woke[d].Load() {
			name = "core.inc_wake"
		}
		ring.finish(next, tr.close(name, h, st))
		w.done[d].Store(next)
		h, _ = tr.open("core.sharded.inc", root)
		w.tally.Increment(1)
		tr.end(h)
		tallied++
		if next%4 == 0 {
			h, st = tr.open("core.check_hit_sharded", root)
			w.tally.Check(tallied)
			tr.close("core.check_hit_sharded", h, st)
		}
		ph.op(tr.end(root), 1)
		k = next
	}
}

// stop waits for the drivers; the first to stop releases the other if it
// is waiting on the stopped one's stage.
func (w *localWave) stop() {
	w.dcancel()
	w.dwg.Wait()
}

// gate checks exact final values, engine increment counts, and that
// every wait the final values satisfy was released.
func (w *localWave) gate() {
	r := w.r
	total := w.steps[0] + w.steps[1]
	for d, c := range w.stages {
		f := w.steps[d]
		r.check(c.WaitTimeout(f, 5*time.Second), "stage %d: Check(%d) did not return", d, f)
		r.check(!c.WaitTimeout(f+1, 0), "stage %d: value exceeds final %d", d, f)
		r.check(c.Stats().Increments == f, "stage %d: engine counted %d increments, issued %d", d, c.Stats().Increments, f)
	}
	r.check(w.tally.WaitTimeout(total, 5*time.Second), "tally: Check(%d) did not return", total)
	r.check(!w.tally.WaitTimeout(total+1, 0), "tally: value exceeds final %d", total)
	r.check(w.tally.Stats().Increments == total, "tally: engine counted %d increments, issued %d", w.tally.Stats().Increments, total)
	gatePending(r, w.pending, w.armed, func(j int) uint64 { return w.steps[j] })
}

// gateDeadline is how long a wait the final values release may take.
var gateDeadline = 5 * time.Second

// gatePending fails every parked wait whose level the final values
// reach, and every armed predicate that holds at them, that is still not
// released after a deadline. pending holds level<<8 | counter index.
func gatePending(r *runner, pending []atomic.Uint64, preds []atomic.Pointer[armedPred], final func(j int) uint64) {
	deadline := time.Now().Add(gateDeadline)
	for i := range pending {
		for {
			p := pending[i].Load()
			if p == 0 || p>>8 > final(int(p&0xff)) {
				break
			}
			if time.Now().After(deadline) {
				r.check(false, "wait at level %d of counter %d not released by the deadline", p>>8, p&0xff)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := range preds {
		for {
			p := preds[i].Load()
			if p == nil || !p.holds(final) {
				break
			}
			if time.Now().After(deadline) {
				r.check(false, "predicate %+v over counters %v holds at the final values but was not released by the deadline", p.shape, p.ctrs)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func (w *localWave) teardown() {
	if w.cancel != nil {
		w.cancel()
	}
	if w.dcancel != nil {
		w.dcancel()
	}
	w.dwg.Wait()
	w.wwg.Wait()
}

// hostMem is the live heap the counters, their parked waits and Conds
// hold: after a GC, over the heap before setup, when the harness's tables
// already existed. The waiter goroutines' stacks are not in it.
func (w *localWave) hostMem() (float64, string) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-int64(w.r.heapBase)) / (1 << 20),
		fmt.Sprintf("live heap after GC over the %.2f MiB before setup: the counters with their parked waits and Conds", float64(w.r.heapBase)/(1<<20))
}

func (w *localWave) snap() snapshot {
	var s snapshot
	runtimeSnap(&s)
	s.engine = sumStats(w.stages[0].Stats(), w.stages[1].Stats())
	s.tally = sumStats(w.tally.Stats())
	s.conds = w.acc.snap()
	return s
}

func (w *localWave) segment() { w.acc.sample(w.conds) }

func (w *localWave) offPath() []string { return []string{"wire", "remote", "server", "cluster"} }

func (w *localWave) layers(m *metrics, ph *phase, a, b snapshot) {
	m.latency("core.inc_p50_ns", ph.s("core.inc"), 0.5, "ns", 1)
	m.latency("core.inc_wake_p50_us", ph.s("core.inc_wake"), 0.5, "us", 1e3)
	m.latency("core.inc_wake_p99_us", ph.s("core.inc_wake"), 0.99, "us", 1e3)
	m.latency("core.deliver_p50_us", ph.s("deliver"), 0.5, "us", 1e3)
	m.latency("core.deliver_p99_us", ph.s("deliver"), 0.99, "us", 1e3)
	m.latency("core.check_hit_list_p50_ns", ph.s("core.check_hit_list"), 0.5, "ns", 1)
	m.latency("core.check_hit_sharded_p50_ns", ph.s("core.check_hit_sharded"), 0.5, "ns", 1)
	e0, e1 := a.engine, b.engine
	wakes := float64(e1.Broadcasts + e1.ChannelCloses - e0.Broadcasts - e0.ChannelCloses)
	m.ratio("core.wakeups_per_level", wakes, float64(e1.SatisfiedLevels-e0.SatisfiedLevels), "count", "satisfied levels")
	t0, t1 := a.tally, b.tally
	sus := float64(e1.Suspends + t1.Suspends - e0.Suspends - t0.Suspends)
	imm := float64(e1.ImmediateChecks + t1.ImmediateChecks - e0.ImmediateChecks - t0.ImmediateChecks)
	m.ratio("core.suspend_ratio", sus, sus+imm, "share", "checks on the stages and the tally")
	m.ratio("core.fastpath_ratio", float64(t1.FastPathIncrements-t0.FastPathIncrements),
		float64(t1.Increments-t0.Increments), "share", "tally increments")
	m.add("core.peak_levels", float64(e1.PeakLevels), "count", "max over the stage counters")

	cs := []counter.Interface{w.stages[0], w.stages[1]}
	armProbe(ph, 1000, func(i int) *wait.Cond {
		p := w.preds[i%len(w.preds)]
		base := w.steps[0] + w.steps[1] + 1<<20
		if p.sum {
			return wait.Sum(cs...).AtLeast(base + p.threshold)
		}
		return wait.KOfN(cs, p.k, base+p.threshold)
	})
	waitLayer(m, ph, a.conds, b.conds)
}
