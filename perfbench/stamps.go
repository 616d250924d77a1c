package main

import (
	"sync/atomic"
	"time"
)

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

// stampRing belongs to one counter with a single writer. Before each
// Increment(1) the writer stamps the level that Increment will reach with
// its start time, so a woken wait can measure its latency from the
// Increment that crossed its level. A ring slot is reused every len
// levels; a reader that finds its slot reused reports the stamp lost.
type stampRing struct {
	mask   uint64
	slots  []stampSlot
	issued atomic.Uint64 // highest level whose Increment has started
}

type stampSlot struct {
	level      atomic.Uint64
	start, end atomic.Int64
}

func newStampRing(size int) *stampRing {
	return &stampRing{mask: uint64(size - 1), slots: make([]stampSlot, size)}
}

// begin stamps level as reached by an Increment starting at t. The slot
// is invalidated before its times change, so a reader that sees the same
// level before and after reading a time read that level's time.
func (r *stampRing) begin(level uint64, t int64) {
	s := &r.slots[level&r.mask]
	s.level.Store(0)
	s.end.Store(0)
	s.start.Store(t)
	s.level.Store(level)
	r.issued.Store(level)
}

// finish records when the Increment that reached level returned.
func (r *stampRing) finish(level uint64, t int64) {
	s := &r.slots[level&r.mask]
	if s.level.Load() == level {
		s.end.Store(t)
	}
}

// stampState classifies a lookup.
type stampState int

const (
	stampOK    stampState = iota
	stampEarly            // the crossing Increment has not started: an early release
	stampLost             // the slot was reused before it was read
)

// start returns when the Increment that reached level started.
func (r *stampRing) start(level uint64) (int64, stampState) {
	if level == 0 {
		return -1 << 62, stampOK // the initial value: reached before any Increment
	}
	if r.issued.Load() < level {
		return 0, stampEarly
	}
	s := &r.slots[level&r.mask]
	l1 := s.level.Load()
	t := s.start.Load()
	if l1 != level || s.level.Load() != level {
		return 0, stampLost
	}
	return t, stampOK
}

// end returns when the Increment that reached level returned, if it has.
func (r *stampRing) end(level uint64) (int64, bool) {
	s := &r.slots[level&r.mask]
	l1 := s.level.Load()
	t := s.end.Load()
	if l1 != level || s.level.Load() != level || t == 0 {
		return 0, false
	}
	return t, true
}

// predicate shapes the workloads arm: k of the counters at one
// threshold (KOfN, with Min as k = n), or the sum of two counters
// reaching a target.
type predShape struct {
	sum       bool
	k         int
	threshold uint64 // KOfN
	target    uint64 // Sum
}

// armedPred is a parked predicate wait: its shape, with absolute levels,
// over the two counters at index ctrs of its workload's table.
type armedPred struct {
	shape predShape
	ctrs  [2]int
}

// holds reports whether the predicate holds at the counters' values.
func (p *armedPred) holds(value func(j int) uint64) bool {
	a, b := value(p.ctrs[0]), value(p.ctrs[1])
	if p.shape.sum {
		return a+b >= p.shape.target
	}
	n := 0
	for _, v := range []uint64{a, b} {
		if v >= p.shape.threshold {
			n++
		}
	}
	return n >= p.shape.k
}

// flipTime returns the start of the Increment that made the predicate
// hold over the given single-writer counters.
func flipTime(p predShape, rings []*stampRing) (int64, stampState) {
	if p.sum {
		return sumFlip(p.target, rings[0], rings[1])
	}
	// The k-th earliest crossing of the threshold flips a k-of-n wait.
	var ts []int64
	for _, r := range rings {
		t, st := r.start(p.threshold)
		switch st {
		case stampLost:
			return 0, stampLost
		case stampOK:
			ts = append(ts, t)
		}
	}
	if len(ts) < p.k {
		return 0, stampEarly
	}
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	return ts[p.k-1], stampOK
}

// sumFlip finds when a+b first reached target: the earliest over splits
// target = x + (target-x) of the later of the two crossings. The first
// counter's crossing time rises with x and the second's falls, so the
// best split sits where they cross, found by binary search.
func sumFlip(target uint64, a, b *stampRing) (int64, stampState) {
	ia, ib := a.issued.Load(), b.issued.Load()
	if ia+ib < target {
		return 0, stampEarly
	}
	lo, hi := uint64(0), min(target, ia)
	if target > ib {
		lo = target - ib
	}
	cost := func(x uint64) (int64, stampState) {
		ta, sa := a.start(x)
		tb, sb := b.start(target - x)
		if sa != stampOK || sb != stampOK {
			return 0, stampLost
		}
		return max(ta, tb), stampOK
	}
	// Smallest x in [lo, hi] with a(x) >= b(target-x).
	l, h := lo, hi
	for l < h {
		m := l + (h-l)/2
		ta, sa := a.start(m)
		tb, sb := b.start(target - m)
		if sa != stampOK || sb != stampOK {
			return 0, stampLost
		}
		if ta >= tb {
			h = m
		} else {
			l = m + 1
		}
	}
	best, st := cost(l)
	if st != stampOK {
		return 0, st
	}
	if l > lo {
		if t, st := cost(l - 1); st == stampOK && t < best {
			best = t
		}
	}
	return best, stampOK
}
