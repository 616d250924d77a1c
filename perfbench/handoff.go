package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monotonic/counter/remote"
	"monotonic/counter/wait"
)

// wire-handoff: one counterd and two remote.Client sessions on two
// connections ping-pong. A Increments ping then Checks pong; B Checks
// ping (or, on the seed's predicate rounds, waits on a one-counter Cond
// the server evaluates) then Increments pong. Every message is one frame.
const (
	hoPredShare = 3 // one round in this many waits through a Cond
	hoRing      = 1 << 16
)

type handoff struct {
	r      *runner
	d      *counterd
	dialer *countingDialer
	a, b   *remote.Client
	names  [2]string
	// A's and B's handles on ping and pong
	pingA, pongA, pingB, pongB *remote.Counter
	rings                      [2]*stampRing // ping, pong
	predRound                  []bool

	ctx         context.Context
	cancel      context.CancelFunc
	aDone, bWG  sync.WaitGroup
	rounds      [2]uint64 // completed by A, by B
	waits       atomic.Int64
	conds       []atomic.Pointer[wait.Cond]
	acc         condAcc
	threadsPeak int64
}

func newHandoff(r *runner) workload {
	rng := r.seed
	w := &handoff{r: r}
	tag := splitmix(&rng)
	w.names = [2]string{fmt.Sprintf("ping-%x", tag), fmt.Sprintf("pong-%x", tag)}
	// One round in each block of hoPredShare, at a seeded position.
	for i := 0; i < 1024; i++ {
		pick := int(splitmix(&rng) % hoPredShare)
		for j := 0; j < hoPredShare; j++ {
			w.predRound = append(w.predRound, j == pick)
		}
	}
	return w
}

func (w *handoff) opName() string { return "handoffs" }

func (w *handoff) describe() string {
	preds := 0
	for _, p := range w.predRound {
		if p {
			preds++
		}
	}
	return fmt.Sprintf("wire-handoff: 1 counterd on %s, traffic over loopback; 2 remote.Client sessions on 2 connections; "+
		"counters %q/%q; %d of %d rounds wait through a server-side Cond", w.d.addr, w.names[0], w.names[1], preds, len(w.predRound))
}

func (w *handoff) setup() error {
	w.ctx, w.cancel = context.WithCancel(context.Background())
	var err error
	if w.d, err = w.r.startCounterd(); err != nil {
		return err
	}
	w.dialer = &countingDialer{}
	if w.a, err = remote.Dial(w.d.addr, remote.WithDialer(w.dialer.dial)); err != nil {
		return err
	}
	if w.b, err = remote.Dial(w.d.addr, remote.WithDialer(w.dialer.dial)); err != nil {
		return err
	}
	w.pingA, w.pongA = w.a.Counter(w.names[0]), w.a.Counter(w.names[1])
	w.pingB, w.pongB = w.b.Counter(w.names[0]), w.b.Counter(w.names[1])
	w.rings = [2]*stampRing{newStampRing(hoRing), newStampRing(hoRing)}
	w.conds = make([]atomic.Pointer[wait.Cond], 1)
	return nil
}

func (w *handoff) start() {
	w.aDone.Add(1)
	go func() {
		defer w.aDone.Done()
		w.r.guard("wire-handoff A", w.driveA)
	}()
	w.bWG.Add(1)
	go func() {
		defer w.bWG.Done()
		w.r.guard("wire-handoff B", w.driveB)
	}()
}

// received checks a CheckChan's single value: it must be nil, and no
// second value may follow.
func (w *handoff) received(err error, ch <-chan error, level uint64) bool {
	if err != nil {
		w.r.check(false, "wait at level %d: %v", level, err)
		return false
	}
	select {
	case <-ch:
		w.r.check(false, "wait at level %d released twice", level)
	default:
	}
	return true
}

// await blocks for a CheckChan's value inside a kept "remote.wait" span,
// returning it with the time it arrived; ok is false if the run ended.
func (w *handoff) await(tr *tracer, root int, ch <-chan error) (err error, t int64, ok bool) {
	h, _ := tr.open("remote.wait", root)
	select {
	case err = <-ch:
	case <-w.ctx.Done():
		return nil, 0, false
	}
	return err, tr.end(h), true
}

// driveA and driveB make the same calls in a traced phase, each inside a
// span.
func (w *handoff) driveA() {
	var i uint64
	defer func() { w.rounds[0] = i }()
	for !w.r.stop.Load() {
		ph := w.r.cur.Load()
		tr := ph.tracer(0)
		next := i + 1
		tr.beginOp(next)
		root, _ := tr.open("round", -1)
		h, st := tr.open("remote.inc", root)
		w.rings[0].begin(next, st)
		w.pingA.Increment(1)
		w.rings[0].finish(next, tr.close("remote.inc", h, st))
		h, st = tr.open("remote.check_reg", root)
		ch := w.pongA.CheckChan(next)
		tr.close("remote.check_reg", h, st)
		w.waits.Add(1)
		err, t, ok := w.await(tr, root, ch)
		if !ok || !w.received(err, ch, next) {
			return
		}
		w.r.wake(ph, "wake", w.rings[1], next, t)
		tr.end(root)
		ph.op(t, 1)
		i = next
	}
}

func (w *handoff) driveB() {
	var i uint64
	defer func() { w.rounds[1] = i }()
	for {
		ph := w.r.cur.Load()
		tr := ph.tracer(1)
		next := i + 1
		tr.beginOp(next)
		root, _ := tr.open("round", -1)
		if w.predRound[next%uint64(len(w.predRound))] {
			c := wait.AtLeast(w.pingB, next)
			w.conds[0].Store(c)
			w.waits.Add(1)
			h, _ := tr.open("wait.cond", root)
			err := c.Wait(w.ctx)
			t := tr.end(h)
			if err != nil {
				return
			}
			w.r.predWake(ph, predShape{k: 1, threshold: next}, w.rings[:1], t)
			w.acc.released(c)
		} else {
			h, st := tr.open("remote.check_reg", root)
			ch := w.pingB.CheckChan(next)
			tr.close("remote.check_reg", h, st)
			w.waits.Add(1)
			err, t, ok := w.await(tr, root, ch)
			if !ok || !w.received(err, ch, next) {
				return
			}
			w.r.wake(ph, "wake", w.rings[0], next, t)
		}
		h, st := tr.open("remote.inc", root)
		w.rings[1].begin(next, st)
		w.pongB.Increment(1)
		w.rings[1].finish(next, tr.close("remote.inc", h, st))
		tr.end(root)
		i = next
	}
}

// stop lets A finish its round, then releases B from its next wait.
func (w *handoff) stop() {
	done := make(chan struct{})
	go func() { w.aDone.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		w.r.check(false, "wire-handoff: A did not finish its last round")
	}
	w.cancel()
	<-done
	w.bWG.Wait()
}

func (w *handoff) gate() {
	n := w.rounds[0]
	w.r.check(w.rounds[1] == n, "B completed %d rounds, A %d", w.rounds[1], n)
	for _, c := range []*remote.Counter{w.pingA, w.pongA} {
		w.r.check(c.WaitTimeout(n, 5*time.Second), "%s: Check(%d) did not return", c.Name(), n)
		w.r.check(!c.WaitTimeout(n+1, 0), "%s: value exceeds final %d", c.Name(), n)
		inc := c.Stats().Increments
		w.r.check(inc == n, "%s: counterd counted %d increments, issued %d", c.Name(), inc, n)
	}
}

func (w *handoff) teardown() {
	if w.cancel != nil {
		w.cancel()
	}
	w.aDone.Wait()
	w.bWG.Wait()
	for _, c := range []*remote.Client{w.a, w.b} {
		if c != nil {
			c.Close()
		}
	}
	if w.d != nil {
		w.r.stopCounterd(w.d)
	}
}

func (w *handoff) hostMem() (float64, string) { return serverRSS(w.r, []*counterd{w.d}) }

func (w *handoff) snap() snapshot {
	var s snapshot
	runtimeSnap(&s)
	s.conn = w.dialer.counts()
	s.procs = procSnap(w.r, []*counterd{w.d})
	s.hosted = sumStats(w.pingA.Stats(), w.pongA.Stats())
	s.conds = w.acc.snap()
	s.waits = w.waits.Load()
	return s
}

func (w *handoff) segment() {
	w.acc.sample(w.conds)
	for _, p := range procSnap(w.r, []*counterd{w.d}) {
		w.threadsPeak = max(w.threadsPeak, p.threads)
	}
}

func (w *handoff) offPath() []string { return []string{"core", "cluster"} }

func (w *handoff) layers(m *metrics, ph *phase, a, b snapshot) {
	m.latency("core.deliver_p50_us", ph.s("deliver"), 0.5, "us", 1e3)
	m.latency("core.deliver_p99_us", ph.s("deliver"), 0.99, "us", 1e3)
	remoteLayer(m, ph, a, b, 2)
	serverLayer(m, ph, a, b, b.waits-a.waits, w.threadsPeak)
	wireProbe(m, ph, w.names[:], w.rounds[0])
	armProbe(ph, 1000, func(i int) *wait.Cond { return wait.AtLeast(w.pingB, w.rounds[0]+1<<20+uint64(i)) })
	waitLayer(m, ph, a.conds, b.conds)
}
