package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monotonic/counter"
	"monotonic/counter/cluster"
	"monotonic/counter/wait"
)

// wire-fanout: counter/cluster over two counterd processes, one pooled
// connection each. One writer Increments the names round-robin in
// windows and confirms each window with a Check at its own last level on
// each node (applied at the home, not merely queued). Parked waiter
// goroutines hold Checks ahead of the frontier, and predicate goroutines
// keep KOfN and Sum Conds armed: over two names on one node (evaluated
// by that counterd) and over names on both nodes (client-side sentinels).
const (
	foNames     = 32
	foWindow    = 64 // increments per confirmed window
	foWaiters   = 2048
	foPreds     = 128
	foMaxSpread = 512 // waiters park up to this many levels ahead of a name's frontier
	foRing      = 1 << 14
)

type foPred struct {
	a, b  int // name indexes
	shape predShape
}

type fanout struct {
	r       *runner
	ds      []*counterd
	dialer  *countingDialer
	cl      *cluster.Cluster
	names   []string
	ctrs    []*cluster.Counter
	rings   []*stampRing
	node    []int // index of each name's home in ds
	perNode [2]int

	spreads []uint64
	picks   []int // waiter name choices
	preds   []foPred

	ctx         context.Context
	cancel      context.CancelFunc
	wwg         sync.WaitGroup
	dwg         sync.WaitGroup
	pending     []atomic.Uint64
	armed       []atomic.Pointer[armedPred]
	conds       []atomic.Pointer[wait.Cond]
	acc         condAcc
	waits       atomic.Int64
	colocated   int
	threadsPeak int64
}

func newFanout(r *runner) workload { return &fanout{r: r} }

func (w *fanout) opName() string { return "increments applied" }

func (w *fanout) describe() string {
	var addrs []string
	for _, d := range w.ds {
		addrs = append(addrs, d.addr)
	}
	return fmt.Sprintf("wire-fanout: 2 counterd on %v, traffic over loopback; counter/cluster pool size 1 (2 connections); "+
		"%d names (%d/%d per node), window %d; %d parked waiters (%s); %d predicates (%d colocated, server-side)",
		addrs, foNames, w.perNode[0], w.perNode[1], foWindow, foWaiters, spreadNote("spread", w.spreads), foPreds, w.colocated)
}

func (w *fanout) setup() error {
	w.ctx, w.cancel = context.WithCancel(context.Background())
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := w.r.startCounterd()
		if err != nil {
			return err
		}
		w.ds = append(w.ds, d)
		addrs = append(addrs, d.addr)
	}
	w.dialer = &countingDialer{}
	var err error
	if w.cl, err = cluster.DialCluster(addrs, cluster.WithPoolSize(1), cluster.WithDialer(w.dialer.dial)); err != nil {
		return err
	}

	// Inputs from the seed: names, then placement, then who waits where.
	rng := w.r.seed
	tag := splitmix(&rng)
	byNode := [2][]int{}
	for i := 0; i < foNames; i++ {
		name := fmt.Sprintf("fan-%x-%d", tag, i)
		addr, ok := w.cl.NodeFor(name)
		if !ok {
			return errors.New("no live node")
		}
		n := 0
		if addr == addrs[1] {
			n = 1
		}
		w.names = append(w.names, name)
		w.ctrs = append(w.ctrs, w.cl.Counter(name))
		w.rings = append(w.rings, newStampRing(foRing))
		w.node = append(w.node, n)
		w.perNode[n]++
		byNode[n] = append(byNode[n], i)
	}
	for i := 0; i < 4096; i++ {
		w.spreads = append(w.spreads, 1+splitmix(&rng)%foMaxSpread)
		w.picks = append(w.picks, int(splitmix(&rng)%foNames))
	}
	for i := 0; i < 4096; i++ {
		p := foPred{shape: predMix(i/2, 1+splitmix(&rng)%(foMaxSpread/4))}
		n := int(splitmix(&rng) % 2)
		if i%2 == 0 && len(byNode[n]) >= 2 {
			// Colocated: two names on node n.
			x := splitmix(&rng) % uint64(len(byNode[n]))
			y := (x + 1 + splitmix(&rng)%uint64(len(byNode[n])-1)) % uint64(len(byNode[n]))
			p.a, p.b = byNode[n][x], byNode[n][y]
		} else if len(byNode[0]) > 0 && len(byNode[1]) > 0 {
			p.a = byNode[0][splitmix(&rng)%uint64(len(byNode[0]))]
			p.b = byNode[1][splitmix(&rng)%uint64(len(byNode[1]))]
		} else {
			return errors.New("every name landed on one node")
		}
		w.preds = append(w.preds, p)
	}
	for _, p := range w.preds[:foPreds] {
		if w.node[p.a] == w.node[p.b] {
			w.colocated++
		}
	}

	w.pending = make([]atomic.Uint64, foWaiters)
	w.armed = make([]atomic.Pointer[armedPred], foPreds)
	w.conds = make([]atomic.Pointer[wait.Cond], foPreds)
	var parked sync.WaitGroup
	parked.Add(foWaiters + foPreds)
	for i := 0; i < foWaiters; i++ {
		w.wwg.Add(1)
		go w.waiter(i, &parked)
	}
	for i := 0; i < foPreds; i++ {
		w.wwg.Add(1)
		go w.pred(i, &parked)
	}
	parked.Wait()
	// Setup ends once every wait has reached its node: all Check and
	// WaitFor frames are written, and a Stats round trip on each node,
	// answered in frame order, has come back.
	want := int64(foWaiters + w.colocated + 2*(foPreds-w.colocated))
	deadline := time.Now().Add(10 * time.Second)
	for w.waits.Load() < want || w.dialer.counts().framesOut < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("sent %d of %d waits", w.dialer.counts().framesOut, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	for n := range w.ds {
		for j := range w.names {
			if w.node[j] == n {
				w.ctrs[j].Stats()
				break
			}
		}
	}
	return nil
}

func (w *fanout) waiter(i int, parked *sync.WaitGroup) {
	defer w.wwg.Done()
	first := true
	for k := i * 7; ; k++ {
		j := w.picks[k%len(w.picks)]
		level := w.rings[j].issued.Load() + w.spreads[k%len(w.spreads)]
		w.pending[i].Store(level<<8 | uint64(j))
		if first {
			parked.Done()
			first = false
		}
		w.waits.Add(1)
		err := w.ctrs[j].CheckContext(w.ctx, level)
		t := now()
		w.pending[i].Store(0)
		if err != nil {
			if w.ctx.Err() == nil {
				w.r.check(false, "Check(%d) on %s: %v", level, w.names[j], err)
			}
			return
		}
		w.r.wake(w.r.cur.Load(), "wake", w.rings[j], level, t)
	}
}

func (w *fanout) pred(i int, parked *sync.WaitGroup) {
	defer w.wwg.Done()
	first := true
	for k := i; ; k += foPreds {
		p := w.preds[k%len(w.preds)]
		c := w.build(p, w.rings[p.a].issued.Load(), w.rings[p.b].issued.Load(), &p.shape)
		w.conds[i].Store(c)
		w.armed[i].Store(&armedPred{shape: p.shape, ctrs: [2]int{p.a, p.b}})
		if w.node[p.a] == w.node[p.b] {
			w.waits.Add(1)
		} else {
			w.waits.Add(2)
		}
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
		w.r.predWake(w.r.cur.Load(), p.shape, []*stampRing{w.rings[p.a], w.rings[p.b]}, t)
		w.acc.released(c)
	}
}

// build makes p's Cond ahead of the frontiers fa, fb, recording the
// absolute threshold or target in shape.
func (w *fanout) build(p foPred, fa, fb uint64, shape *predShape) *wait.Cond {
	cs := []counter.Interface{w.ctrs[p.a], w.ctrs[p.b]}
	if p.shape.sum {
		shape.target = fa + fb + p.shape.threshold
		return wait.Sum(cs...).AtLeast(shape.target)
	}
	shape.threshold = max(fa, fb) + p.shape.threshold
	return wait.KOfN(cs, p.shape.k, shape.threshold)
}

func (w *fanout) start() {
	w.dwg.Add(1)
	go func() {
		defer w.dwg.Done()
		w.r.guard("wire-fanout writer", w.write)
	}()
}

// write is the single writer: windows of round-robin increments, each
// confirmed by a Check at the window's last level on each node. A traced
// phase makes the same calls, each inside a span.
func (w *fanout) write() {
	vals := make([]uint64, foNames)
	j := 0
	for win := uint64(1); !w.r.stop.Load(); win++ {
		ph := w.r.cur.Load()
		tr := ph.tracer(0)
		tr.beginOp(win)
		root, _ := tr.open("window", -1)
		last := [2]int{-1, -1}
		for k := 0; k < foWindow; k++ {
			vals[j]++
			h, st := tr.open("cluster.inc", root)
			w.rings[j].begin(vals[j], st)
			w.ctrs[j].Increment(1)
			w.rings[j].finish(vals[j], tr.close("cluster.inc", h, st))
			last[w.node[j]] = j
			j = (j + 1) % foNames
		}
		h, st := tr.open("remote.window_wait", root)
		for _, x := range last {
			if x >= 0 {
				w.ctrs[x].Check(vals[x])
			}
		}
		t := tr.close("remote.window_wait", h, st)
		tr.end(root)
		ph.op(t, foWindow)
	}
}

func (w *fanout) stop() { w.dwg.Wait() }

func (w *fanout) gate() {
	for j, c := range w.ctrs {
		f := w.rings[j].issued.Load()
		w.r.check(c.WaitTimeout(f, 5*time.Second), "%s: Check(%d) did not return", w.names[j], f)
		w.r.check(!c.WaitTimeout(f+1, 0), "%s: value exceeds final %d", w.names[j], f)
		inc := c.Stats().Increments
		w.r.check(inc == f, "%s: counterd counted %d increments, issued %d", w.names[j], inc, f)
	}
	w.r.check(len(w.cl.Live()) == len(w.ds), "live nodes %v, want %d", w.cl.Live(), len(w.ds))
	gatePending(w.r, w.pending, w.armed, func(j int) uint64 { return w.rings[j].issued.Load() })
}

func (w *fanout) teardown() {
	if w.cancel != nil {
		w.cancel()
	}
	w.dwg.Wait()
	w.wwg.Wait()
	if w.cl != nil {
		w.cl.Close()
	}
	for _, d := range w.ds {
		w.r.stopCounterd(d)
	}
}

func (w *fanout) hostMem() (float64, string) { return serverRSS(w.r, w.ds) }

func (w *fanout) snap() snapshot {
	var s snapshot
	runtimeSnap(&s)
	s.conn = w.dialer.counts()
	s.procs = procSnap(w.r, w.ds)
	var all []counter.Stats
	for _, c := range w.ctrs {
		all = append(all, c.Stats())
	}
	s.hosted = sumStats(all...)
	s.conds = w.acc.snap()
	s.waits = w.waits.Load()
	return s
}

func (w *fanout) segment() {
	w.acc.sample(w.conds)
	for _, p := range procSnap(w.r, w.ds) {
		w.threadsPeak = max(w.threadsPeak, p.threads)
	}
	if live := len(w.cl.Live()); live != len(w.ds) {
		w.r.check(false, "only %d of %d nodes live", live, len(w.ds))
	}
}

func (w *fanout) offPath() []string { return []string{"core"} }

func (w *fanout) layers(m *metrics, ph *phase, a, b snapshot) {
	m.latency("core.deliver_p50_us", ph.s("deliver"), 0.5, "us", 1e3)
	m.latency("core.deliver_p99_us", ph.s("deliver"), 0.99, "us", 1e3)
	remoteLayer(m, ph, a, b, 2)
	serverLayer(m, ph, a, b, b.waits-a.waits, w.threadsPeak)
	wireProbe(m, ph, w.names, w.rings[0].issued.Load())
	armProbe(ph, 1000, func(i int) *wait.Cond {
		p := w.preds[i%len(w.preds)]
		var shape predShape
		return w.build(p, w.rings[p.a].issued.Load()+1<<20, w.rings[p.b].issued.Load()+1<<20, &shape)
	})
	waitLayer(m, ph, a.conds, b.conds)
	m.latency("cluster.inc_p50_ns", ph.s("cluster.inc"), 0.5, "ns", 1)
	m.ratio("cluster.node_skew", float64(max(w.perNode[0], w.perNode[1])), float64(foNames)/2, "ratio", "mean names per node")
	m.ratio("cluster.colocated_share", float64(w.colocated), foPreds, "share", "armed predicates")
	m.add("cluster.live_nodes", float64(len(w.cl.Live())), "count", fmt.Sprintf("of %d", len(w.ds)))
}
