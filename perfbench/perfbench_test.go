package main

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func TestTopQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{0, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := topQuantile(c.n); got != c.want {
			t.Errorf("topQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := qname(0.999); got != "p999" {
		t.Errorf("qname(0.999) = %q", got)
	}
}

func TestSeriesMedianOfSegments(t *testing.T) {
	rng := uint64(1)
	s := newSeries(3, &rng)
	// Segments 0 and 1 hold 1..1000 and 1001..2000; segment 2 holds one
	// value, too few for a p99 but enough for a median.
	for v := int64(1); v <= 1000; v++ {
		s.add(0, v)
		s.add(1, v+1000)
	}
	s.add(2, 5)
	if v, ok := s.at(0.99); !ok || v != (990+1990)/2.0 {
		t.Errorf("p99 = %g, %v; want the median of 990 and 1990", v, ok)
	}
	if v, ok := s.at(0.5); !ok || v != 500 {
		t.Errorf("p50 = %g, %v; want 500, the median of 500, 1500 and 5", v, ok)
	}
	if s.count() != 2001 {
		t.Errorf("count = %d", s.count())
	}
	empty := newSeries(2, &rng)
	if _, ok := empty.at(0.5); ok {
		t.Error("an empty series reported a median")
	}
}

func TestReservoirKeepsCountAndSize(t *testing.T) {
	r := newReservoir(100, 7)
	for v := int64(0); v < 10000; v++ {
		r.add(v)
	}
	s, n := r.sorted()
	if n != 10000 || len(s) != 100 {
		t.Fatalf("n=%d len=%d", n, len(s))
	}
	if med := quantile(s, 0.5); med < 3000 || med > 7000 {
		t.Errorf("sample median %g is not near the population's 5000", med)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to 90..100
		{Name: "a.kid", Start: 12, End: 14, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 2, 30, 30, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestFlattenRebasesParents(t *testing.T) {
	a := &tracer{spans: []span{{Name: "a", Parent: -1}, {Name: "a.kid", Parent: 0}}}
	b := &tracer{spans: []span{{Name: "b", Parent: -1}, {Name: "b.kid", Parent: 0}}}
	all := flatten([]*tracer{a, b})
	if len(all) != 4 || all[1].Parent != 0 || all[2].Parent != -1 || all[3].Parent != 2 {
		t.Errorf("flatten = %+v", all)
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (counter d) S 1 2 3 4 5 6 7 8 9 10 123 45 0 0 20 0 8 0"
	if got, err := parseStatCPU(stat); err != nil || got != 168 {
		t.Errorf("parseStatCPU = %d, %v; want 168", got, err)
	}
	if _, err := parseStatCPU("4242 (x) S 1"); err == nil {
		t.Error("short stat line parsed")
	}
	status := "Name:\tcounterd\nVmHWM:\t   12345 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t11\nnonvoluntary_ctxt_switches:\t3\n"
	var p procStat
	if err := parseStatus(status, &p); err != nil {
		t.Fatal(err)
	}
	if p.hwmKiB != 12345 || p.threads != 7 || p.voluntary != 11 || p.involuntary != 3 {
		t.Errorf("parseStatus = %+v", p)
	}
	if err := parseStatus("Name:\tx\n", &p); err == nil {
		t.Error("status without the fields parsed")
	}
	self, err := readProc("self")
	if err != nil {
		t.Fatal(err)
	}
	if self.hwmKiB <= 0 || self.threads <= 0 {
		t.Errorf("readProc(self) = %+v", self)
	}
	if _, err := readProc(strconv.Itoa(os.Getpid())); err != nil {
		t.Error(err)
	}
}

func frame(payload string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(b, payload...)
}

func TestFrameCounterAcrossSplits(t *testing.T) {
	stream := append(append(frame("abc"), frame("")...), frame("hello, world")...)
	for cut := 0; cut <= len(stream); cut++ {
		var f frameCounter
		n := f.feed(stream[:cut]) + f.feed(stream[cut:])
		if n != 3 {
			t.Errorf("split at %d: %d frames, want 3", cut, n)
		}
	}
	var f frameCounter
	var n int64
	for _, b := range stream {
		n += f.feed([]byte{b})
	}
	if n != 3 {
		t.Errorf("byte at a time: %d frames, want 3", n)
	}
}

func TestCountingConn(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	msg := append(frame("one"), frame("two!")...)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write(buf)
		}
	}()
	var d countingDialer
	c, err := d.dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	got := d.counts()
	if got.dials != 1 || got.writes != 1 || got.bytesOut != int64(len(msg)) || got.framesOut != 2 ||
		got.bytesIn != int64(len(msg)) || got.framesIn != 2 || got.reads < 1 {
		t.Errorf("counts = %+v", got)
	}
}

func TestFlipTime(t *testing.T) {
	a, b := newStampRing(16), newStampRing(16)
	// a reaches 1, 2, 3 at t=10, 30, 50; b reaches 1, 2 at t=20, 40.
	a.begin(1, 10)
	b.begin(1, 20)
	a.begin(2, 30)
	b.begin(2, 40)
	a.begin(3, 50)
	rings := []*stampRing{a, b}
	for _, c := range []struct {
		p    predShape
		want int64
		st   stampState
	}{
		{predShape{k: 1, threshold: 2}, 30, stampOK},
		{predShape{k: 2, threshold: 2}, 40, stampOK},
		{predShape{k: 2, threshold: 3}, 0, stampEarly},
		{predShape{sum: true, target: 3}, 30, stampOK}, // a=2, b=1
		{predShape{sum: true, target: 4}, 40, stampOK}, // a=2, b=2
		{predShape{sum: true, target: 5}, 50, stampOK}, // a=3, b=2
		{predShape{sum: true, target: 6}, 0, stampEarly},
	} {
		got, st := flipTime(c.p, rings)
		if got != c.want || st != c.st {
			t.Errorf("flipTime(%+v) = %d, %v; want %d, %v", c.p, got, st, c.want, c.st)
		}
	}
	// Reusing a's slot for level 1 loses its stamp.
	a.begin(17, 60)
	if _, st := a.start(1); st != stampLost {
		t.Errorf("overwritten stamp state %v, want lost", st)
	}
}

func TestArmedPredHolds(t *testing.T) {
	vals := []uint64{5, 9, 3}
	value := func(j int) uint64 { return vals[j] }
	for _, c := range []struct {
		p    armedPred
		want bool
	}{
		{armedPred{predShape{k: 1, threshold: 9}, [2]int{0, 1}}, true},
		{armedPred{predShape{k: 2, threshold: 9}, [2]int{0, 1}}, false},
		{armedPred{predShape{k: 2, threshold: 5}, [2]int{0, 1}}, true},
		{armedPred{predShape{k: 1, threshold: 6}, [2]int{0, 2}}, false},
		{armedPred{predShape{sum: true, target: 8}, [2]int{0, 2}}, true},
		{armedPred{predShape{sum: true, target: 9}, [2]int{0, 2}}, false},
	} {
		if got := c.p.holds(value); got != c.want {
			t.Errorf("%+v holds = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestGatePendingFailsParkedPredicate(t *testing.T) {
	defer func(d time.Duration) { gateDeadline = d }(gateDeadline)
	gateDeadline = 10 * time.Millisecond
	final := func(j int) uint64 { return []uint64{10, 4}[j] }
	r := &runner{}
	preds := make([]atomic.Pointer[armedPred], 3)
	preds[0].Store(&armedPred{predShape{k: 2, threshold: 10}, [2]int{0, 1}})   // not yet true: fine
	preds[1].Store(&armedPred{predShape{sum: true, target: 14}, [2]int{0, 1}}) // true and parked: lost
	pending := make([]atomic.Uint64, 2)
	pending[0].Store(11<<8 | 0) // above the final value: fine
	pending[1].Store(4<<8 | 1)  // reached and parked: lost
	gatePending(r, pending, preds, final)
	if r.failed.Load() != 2 || r.attempted.Load() != 2 {
		t.Errorf("failed %d of %d, want 2 of 2: %v", r.failed.Load(), r.attempted.Load(), r.failures())
	}
}

func TestMissingQuantileIsMarked(t *testing.T) {
	rng := uint64(1)
	s := newSeries(2, &rng)
	for v := int64(0); v < 50; v++ {
		s.add(0, v)
	}
	var m metrics
	m.latency("p50", s, 0.5, "ns", 1)
	m.latency("p99", s, 0.99, "ns", 1)
	if p50, _ := m.get("p50"); p50.missing {
		t.Error("p50 of 50 samples marked missing")
	}
	if p99, _ := m.get("p99"); !p99.missing || p99.value != 0 {
		t.Errorf("p99 of 50 samples = %+v, want missing", p99)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.beginOp(1)
	h, st := tr.open("core.inc", -1)
	if h != -1 || st == 0 {
		t.Errorf("open = %d, %d", h, st)
	}
	if end := tr.close("core.inc", h, st); end < st {
		t.Errorf("close = %d before open %d", end, st)
	}
	if end := tr.end(h); end < st {
		t.Errorf("end = %d before open %d", end, st)
	}
}

func TestGCPausesWindow(t *testing.T) {
	var a, b snapshot
	for i := range b.pauseNs {
		b.pauseNs[i] = uint64(i)
	}
	a.numGC, b.numGC = 10, 13 // GCs 11..13 sit at 10..12
	if got := gcPauses(a, b); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Errorf("pauses of GCs 11..13 = %v", got)
	}
	a.numGC, b.numGC = 10, 1000 // more than the buffer keeps: its last 256
	if got := gcPauses(a, b); len(got) != 256 {
		t.Errorf("kept %d pauses of 990 GCs, want 256", len(got))
	}
}
