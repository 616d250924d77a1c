package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a pipeline step, a handoff, a window) share op; parent is
// the index of the enclosing span in the same tracer, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
}

// tracer belongs to one goroutine. Every span it opens is timed into its
// name's series; the spans themselves are kept in memory for every
// keepEvery-th operation, up to a cap, and written out when the run ends.
// A nil tracer records nothing: its methods only read the clock, so a
// driver runs the same loop whether its phase is traced or not.
type tracer struct {
	ph        *phase
	spans     []span
	keep      bool
	op        uint64
	keepEvery uint64
	dropped   int
}

const maxKeptSpans = 1 << 16

func newTracer(ph *phase) *tracer {
	return &tracer{ph: ph, keepEvery: 256, spans: make([]span, 0, 1024)}
}

// beginOp starts operation op; its spans are kept if op is sampled.
func (t *tracer) beginOp(op uint64) {
	if t == nil {
		return
	}
	t.op = op
	t.keep = op%t.keepEvery == 0
	if t.keep && len(t.spans) >= maxKeptSpans {
		t.keep = false
		t.dropped++
	}
}

// open starts a span and returns its handle for close.
func (t *tracer) open(name string, parent int) (int, int64) {
	if t == nil || !t.keep {
		return -1, now()
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	h := len(t.spans) - 1
	t.spans[h].Start = now()
	return h, t.spans[h].Start
}

// close ends the span under its final name, records its duration in
// that name's series, and returns the end time.
func (t *tracer) close(name string, h int, st int64) int64 {
	end := now()
	if t == nil {
		return end
	}
	if h >= 0 {
		t.spans[h].Name = name
		t.spans[h].End = end
	}
	t.ph.record(name, end-st, end)
	return end
}

// end ends a span without recording its duration in a series.
func (t *tracer) end(h int) int64 {
	end := now()
	if t != nil && h >= 0 {
		t.spans[h].End = end
	}
	return end
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover (the union of their intervals, clipped to it).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64
		for j, v := range iv {
			switch {
			case j == 0:
				curA, curB = v[0], v[1]
			case v[0] <= curB:
				curB = max(curB, v[1])
			default:
				covered += curB - curA
				curA, curB = v[0], v[1]
			}
		}
		if len(iv) > 0 {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary prints, per span name, the kept spans' count and median
// duration and self time.
func spanSummary(spans []span) []string {
	self := selfTimes(spans)
	type agg struct{ dur, self []int64 }
	by := map[string]*agg{}
	var names []string
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.dur = append(a.dur, s.End-s.Start)
		a.self = append(a.self, self[i])
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		a := by[n]
		sort.Slice(a.dur, func(i, j int) bool { return a.dur[i] < a.dur[j] })
		sort.Slice(a.self, func(i, j int) bool { return a.self[i] < a.self[j] })
		out = append(out, fmt.Sprintf("span %-24s n=%-7d p50 %9.0f ns  self p50 %9.0f ns",
			n, len(a.dur), quantile(a.dur, 0.5), quantile(a.self, 0.5)))
	}
	return out
}

// flatten joins the tracers' kept spans, rebasing parent indexes.
func flatten(tracers []*tracer) []span {
	var all []span
	for _, t := range tracers {
		base := len(all)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// writeSpans writes spans as JSON lines; a span's parent is the line
// number (from 0) of the enclosing span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
