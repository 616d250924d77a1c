package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// reservoir keeps a uniform random sample of at most cap(vals) of the
// values offered to it (Algorithm R), so memory stays bounded however fast
// the program runs, and counts every value offered.
type reservoir struct {
	mu   sync.Mutex
	n    int64
	size int
	vals []int64
	rng  uint64
}

func newReservoir(size int, seed uint64) *reservoir {
	return &reservoir{size: size, rng: seed | 1}
}

func (r *reservoir) add(v int64) {
	r.mu.Lock()
	r.n++
	if len(r.vals) < r.size {
		r.vals = append(r.vals, v)
	} else if j := splitmix(&r.rng) % uint64(r.n); j < uint64(len(r.vals)) {
		r.vals[j] = v
	}
	r.mu.Unlock()
}

// sorted returns the sample, sorted, and the number of values offered.
func (r *reservoir) sorted() ([]int64, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := append([]int64(nil), r.vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s, r.n
}

// splitmix is the SplitMix64 generator: every random choice the
// benchmark makes derives from --seed through it.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantile is the nearest-rank q-quantile of a sorted sample.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// topQuantile is the percentile rule: the highest of p99.99, p99.9, p99
// and p90 that has at least ten of n samples beyond it, else the median.
func topQuantile(n int64) float64 {
	for _, tail := range []int64{10000, 1000, 100, 10} { // 1/tail of samples lie beyond
		if n/tail >= 10 {
			return 1 - 1/float64(tail)
		}
	}
	return 0.5
}

// qname spells a quantile as a metric suffix: 0.99 → "p99".
func qname(q float64) string {
	s := fmt.Sprintf("%g", q*100)
	out := "p"
	for _, c := range s {
		if c != '.' {
			out += string(c)
		}
	}
	return out
}

// series is one latency (or duration) measured per segment of a phase.
// Its reported quantiles are medians over the segments' own quantiles,
// so one noisy second does not move a run's figure.
type series struct {
	segs []*reservoir
}

const reservoirSize = 16384

func newSeries(nseg int, seed *uint64) *series {
	s := &series{segs: make([]*reservoir, nseg)}
	for i := range s.segs {
		s.segs[i] = newReservoir(reservoirSize, splitmix(seed))
	}
	return s
}

func (s *series) add(seg int, v int64) { s.segs[seg].add(v) }

// count is the number of samples offered over all segments.
func (s *series) count() int64 {
	var n int64
	for _, r := range s.segs {
		r.mu.Lock()
		n += r.n
		r.mu.Unlock()
	}
	return n
}

// at reports the median over segments of each segment's q-quantile,
// using only segments with enough samples for q to have ten beyond it.
// ok is false when no segment qualifies.
func (s *series) at(q float64) (v float64, ok bool) {
	var per []float64
	for _, r := range s.segs {
		sorted, n := r.sorted()
		if n > 0 && topQuantile(n) >= q {
			per = append(per, quantile(sorted, q))
		}
	}
	if len(per) == 0 {
		return 0, false
	}
	return medianF(per), true
}

// pooled returns all segments' samples together, sorted, with the count
// offered, for diagnostics whose tails need more samples than a segment
// holds.
func (s *series) pooled() (all []int64, n int64) {
	for _, r := range s.segs {
		v, c := r.sorted()
		all = append(all, v...)
		n += c
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, n
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported figure. note carries its sample count, or the
// base of a ratio, as the human-readable report prints it.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
	// missing marks a quantile no segment had the samples for; it
	// reports 0.
	missing bool
}

// metrics collects a run's figures in report order.
type metrics struct {
	list []metric
}

func (m *metrics) add(name string, value float64, unit, note string) {
	m.list = append(m.list, metric{name: name, value: value, unit: unit, note: note})
}

// ratio records num/den with its base; a zero base reports 0.
func (m *metrics) ratio(name string, num, den float64, unit, base string) {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	m.add(name, v, unit, fmt.Sprintf("%.6g / %.6g %s", num, den, base))
}

// latency records a series quantile in the given unit (scale divides
// nanoseconds). A missing quantile reports 0 with the reason.
func (m *metrics) latency(name string, s *series, q float64, unit string, scale float64) {
	v, ok := s.at(q)
	n := s.count()
	note := fmt.Sprintf("n=%d, median of %d segments", n, len(s.segs))
	// The percentile rule: also the highest quantile a segment's samples
	// allow, as a segment median.
	if top := topQuantile(n / int64(len(s.segs))); top > q {
		if tv, ok := s.at(top); ok {
			note += fmt.Sprintf("; %s %.6g %s", qname(top), tv/scale, unit)
		}
	}
	if !ok {
		note = fmt.Sprintf("n=%d: too few samples for %s", n, qname(q))
	}
	m.add(name, v/scale, unit, note)
	m.list[len(m.list)-1].missing = !ok
}

// get returns the named metric.
func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.name == name {
			return x, true
		}
	}
	return metric{}, false
}
