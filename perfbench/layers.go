package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"

	"monotonic/counter"
	"monotonic/counter/wait"
	"monotonic/internal/wire"
)

// engineStats sums counter.Stats over several counters.
type engineStats struct{ counter.Stats }

func sumStats(ss ...counter.Stats) engineStats {
	var e engineStats
	for _, s := range ss {
		e.PeakLevels = max(e.PeakLevels, s.PeakLevels)
		e.SatisfiedLevels += s.SatisfiedLevels
		e.Broadcasts += s.Broadcasts
		e.ChannelCloses += s.ChannelCloses
		e.Suspends += s.Suspends
		e.ImmediateChecks += s.ImmediateChecks
		e.Increments += s.Increments
		e.FastPathIncrements += s.FastPathIncrements
	}
	return e
}

// condAcc totals the mechanism counters of released predicate waits and
// samples where armed ones are parked.
type condAcc struct {
	releases, fires, arms, reparks atomic.Int64
	parked, external               atomic.Int64
}

// condTotals is a condAcc snapshot.
type condTotals struct{ releases, fires, arms, reparks, parked, external int64 }

// released adds a settled Cond's counters.
func (a *condAcc) released(c *wait.Cond) {
	s := c.Stats()
	a.releases.Add(1)
	a.fires.Add(int64(s.Fires))
	a.arms.Add(int64(s.Arms))
	a.reparks.Add(int64(s.Reparks))
}

// sample notes whether each Cond that has a waiter is parked server-side.
func (a *condAcc) sample(conds []atomic.Pointer[wait.Cond]) {
	for i := range conds {
		if c := conds[i].Load(); c != nil {
			if s := c.Stats(); s.Waiters > 0 {
				a.parked.Add(1)
				if s.External {
					a.external.Add(1)
				}
			}
		}
	}
}

func (a *condAcc) snap() condTotals {
	return condTotals{a.releases.Load(), a.fires.Load(), a.arms.Load(), a.reparks.Load(),
		a.parked.Load(), a.external.Load()}
}

// waitLayer reports the predicate layer over the traced phase.
func waitLayer(m *metrics, ph *phase, a, b condTotals) {
	rel := float64(b.releases - a.releases)
	fires := float64(b.fires - a.fires)
	m.latency("wait.arm_p50_us", ph.s("wait.arm"), 0.5, "us", 1e3)
	m.ratio("wait.fires_per_release", fires, rel, "count", "releases")
	m.ratio("wait.arms_per_release", float64(b.arms-a.arms), rel, "count", "releases")
	m.ratio("wait.reparks_per_release", float64(b.reparks-a.reparks), rel, "count", "releases")
	m.ratio("wait.useful_fire_ratio", rel, fires, "share", "fires")
	m.ratio("wait.external_share", float64(b.external-a.external), float64(b.parked-a.parked),
		"share", "parked Conds sampled at segment ends")
}

// armProbe times building a Cond and arming it: a Wait with a context
// that is already cancelled evaluates the predicate, arms it (sentinels
// or one server-side registration) and disarms it again. It runs after
// the traced phase, so its frames are not in the phase's counts.
func armProbe(ph *phase, n int, build func(i int) *wait.Cond) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < n; i++ {
		st := now()
		c := build(i)
		c.Wait(ctx)
		end := now()
		ph.record("wait.arm", end-st, end)
	}
}

// wireProbe times wire.Append and wire.Decode on the frame kinds the
// wire workloads send, with their counter names, and counts allocations
// per frame of Append plus Read in steady state (buffers reused).
func wireProbe(m *metrics, ph *phase, names []string, level uint64) {
	frames := []wire.Frame{
		{Op: wire.OpIncrement, Seq: level, Amount: 1},
		{Op: wire.OpCheck, ID: level, Level: level},
		{Op: wire.OpWake, ID: level, Level: level},
		{Op: wire.OpIncAck, Seq: level},
		{Op: wire.OpWaitFor, ID: level, Pred: wire.PredThreshold, K: 1},
	}
	var buf []byte
	const rounds = 4000
	for i := 0; i < rounds*len(frames); i++ {
		f := frames[i%len(frames)]
		name := names[i%len(names)]
		f.Name = name
		if f.Op == wire.OpWaitFor {
			f.Name = ""
			f.Watch = []wire.Watch{{Name: name, Level: level}, {Name: names[(i+1)%len(names)], Level: level}}
		}
		st := now()
		buf = wire.Append(buf[:0], &f)
		mid := now()
		if _, err := wire.Decode(buf[4:]); err != nil {
			ph.r.check(false, "wire probe: decode %v: %v", f.Op, err)
			return
		}
		end := now()
		ph.record("wire.append", mid-st, mid)
		ph.record("wire.decode", end-mid, end)
	}

	// Allocation count: encode a batch into one stream, read it back.
	var stream []byte
	for i := 0; i < 256; i++ {
		f := frames[i%len(frames)]
		f.Name = names[i%len(names)]
		if f.Op == wire.OpWaitFor {
			f.Watch = []wire.Watch{{Name: f.Name, Level: level}}
			f.Name = ""
		}
		stream = wire.Append(stream, &f)
	}
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	var ms0, ms1 runtime.MemStats
	const batches = 20
	runtime.ReadMemStats(&ms0)
	for b := 0; b < batches; b++ {
		rd.Reset(stream)
		br.Reset(rd)
		var out []byte
		for i := 0; i < 256; i++ {
			f, err := wire.Read(br)
			if err != nil {
				ph.r.check(false, "wire probe: read: %v", err)
				return
			}
			out = wire.Append(out[:0], &f)
		}
	}
	runtime.ReadMemStats(&ms1)
	m.latency("wire.append_p50_ns", ph.s("wire.append"), 0.5, "ns", 1)
	m.latency("wire.decode_p50_ns", ph.s("wire.decode"), 0.5, "ns", 1)
	m.ratio("wire.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs), batches*256, "allocs/frame",
		"frames read and re-encoded")
}

// serverLayer reports the counterd processes and their hosted engines
// over the traced phase. waits is how many wire-level waits the
// benchmark sent in the phase.
func serverLayer(m *metrics, ph *phase, a, b snapshot, waits int64, threadsPeak int64) {
	ops := float64(ph.totalOps())
	var ticks, ctxsw int64
	for i := range b.procs {
		ticks += b.procs[i].cpuTicks - a.procs[i].cpuTicks
		ctxsw += b.procs[i].voluntary + b.procs[i].involuntary - a.procs[i].voluntary - a.procs[i].involuntary
	}
	cpuUS := float64(ticks) * 1e6 / clockTicks
	m.ratio("server.cpu_us_per_op", cpuUS, ops, "us/op", "ops")
	m.ratio("server.busy_ratio", cpuUS/1e6, float64(b.t-a.t)/1e9, "share", "wall seconds")
	m.ratio("server.ctxsw_per_op", float64(ctxsw), ops, "count", "ops")
	m.add("server.threads_peak", float64(threadsPeak), "count", "max over counterd processes at segment ends")
	h0, h1 := a.hosted, b.hosted
	inc := float64(h1.Increments - h0.Increments)
	m.ratio("server.fastpath_ratio", float64(h1.FastPathIncrements-h0.FastPathIncrements), inc, "share", "hosted increments")
	sus := float64(h1.Suspends - h0.Suspends)
	imm := float64(h1.ImmediateChecks - h0.ImmediateChecks)
	m.ratio("server.suspends_per_wait", sus, float64(waits), "count", "wire waits sent")
	m.ratio("server.immediate_ratio", imm, imm+sus, "share", "hosted checks")
	all, n := ph.s("wake").pooled()
	q := topQuantile(int64(len(all)))
	note := fmt.Sprintf("n=%d, pooled sample of %d", n, len(all))
	if q < 0.999 {
		note += ", too few for p999: reports " + qname(q)
	}
	m.add("server.wake_p999_us", quantile(all, min(q, 0.999))/1e3, "us", note)
}

// remoteLayer reports the client connections over the traced phase.
func remoteLayer(m *metrics, ph *phase, a, b snapshot, conns int64) {
	ops := float64(ph.totalOps())
	c0, c1 := a.conn, b.conn
	m.latency("remote.inc_p50_ns", ph.s("remote.inc"), 0.5, "ns", 1)
	m.latency("remote.check_reg_p50_ns", ph.s("remote.check_reg"), 0.5, "ns", 1)
	m.latency("remote.window_wait_p50_us", ph.s("remote.window_wait"), 0.5, "us", 1e3)
	m.ratio("remote.frames_out_per_op", float64(c1.framesOut-c0.framesOut), ops, "count", "ops")
	m.ratio("remote.frames_in_per_op", float64(c1.framesIn-c0.framesIn), ops, "count", "ops")
	m.ratio("remote.writes_per_op", float64(c1.writes-c0.writes), ops, "count", "ops")
	m.ratio("remote.frames_per_write", float64(c1.framesOut-c0.framesOut), float64(c1.writes-c0.writes), "count", "writes")
	m.ratio("remote.reads_per_op", float64(c1.reads-c0.reads), ops, "count", "ops")
	m.ratio("remote.bytes_out_per_op", float64(c1.bytesOut-c0.bytesOut), ops, "B/op", "ops")
	m.ratio("remote.bytes_in_per_op", float64(c1.bytesIn-c0.bytesIn), ops, "B/op", "ops")
	m.add("remote.reconnects", float64(c1.dials-conns), "count", "dials beyond the first "+strconv.FormatInt(conns, 10))
}

// procSnap reads /proc for each counterd; a failed read is a failure.
func procSnap(r *runner, ds []*counterd) []procStat {
	out := make([]procStat, len(ds))
	for i, d := range ds {
		p, err := readProc(strconv.Itoa(d.pid()))
		if err != nil {
			r.check(false, "read /proc of counterd: %v", err)
		}
		out[i] = p
	}
	return out
}

// serverRSS sums the counterd processes' peak resident sets.
func serverRSS(r *runner, ds []*counterd) (float64, string) {
	var kib int64
	for _, p := range procSnap(r, ds) {
		kib += p.hwmKiB
	}
	return float64(kib) / 1024, fmt.Sprintf("VmHWM summed over %d counterd processes", len(ds))
}
