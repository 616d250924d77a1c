// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the tree as built — in-process counters, a counterd
// handoff over loopback, or a two-node cluster fan-out — checks every
// output, and prints each metric by name with its unit, sample count or
// ratio base. Its last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end list, from an
// untraced run. With -trace 1 the run is split into an untraced half and
// a traced half, and the metrics are the per_layer list: spans the
// benchmark times around its calls into each layer, counts the layers
// publish, a counting net.Conn, and /proc of each counterd. See
// perfbench/METRICS.md for what each metric means and should move.
//
// Run it through run.sh, which builds it and counterd first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// their median, so one slow process start does not move it. Successive
// setups start setupGap apart, so they sample the host over seconds, not
// over one burst of hypervisor steal.
const (
	setupRepeats = 31
	setupGap     = 50 * time.Millisecond
)

// segSeconds is the length of the segments each measured phase is cut
// into: quantiles and rates are medians over segments.
const segSeconds = 1.0

func main() {
	var (
		wname    = flag.String("workload", "", "local-wave, wire-handoff or wire-fanout")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: split the run into an untraced and a traced half and report per-layer metrics")
		counterd = flag.String("counterd", "", "path of the counterd binary")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for span traces")
		spec     = flag.String("benchmark", "BENCHMARK.json", "metric list to report")
	)
	flag.Parse()
	if err := run(*wname, *seed, *seconds, *trace == 1, *counterd, *outDir, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchSpec is the part of BENCHMARK.json the command reads: which
// metrics each mode reports, with their units.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func run(wname string, seed uint64, seconds float64, traced bool, counterdBin, outDir, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	newW, ok := workloads[wname]
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	r := &runner{seed: seed, counterd: counterdBin}
	defer r.cleanup()

	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", wname, seed, seconds, traced)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)

	// Set up several times and keep the last; setup_s is the median.
	var setups []float64
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.teardown()
		}
		w = newW(r)
		time.Sleep(setupGap)
		// The previous setup's garbage is not this setup's cost.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heapBase = ms.HeapAlloc
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Println(w.describe())
	fmt.Printf("setups s: %.4f\n", setups)

	var m metrics
	warm := min(1.0, seconds/10)
	r.cur.Store(newPhase(r, warm, false))
	w.start()
	time.Sleep(dur(warm))
	steal0, total0 := hostSteal()
	var untraced, tph *phase
	var before, after snapshot
	if !traced {
		untraced = r.runPhase(seconds, false, w)
	} else {
		untraced = r.runPhase(seconds/2, false, w)
		before = w.snap()
		tph = r.runPhase(seconds/2, true, w)
		after = w.snap()
	}
	steal1, total1 := hostSteal()
	r.stop.Store(true)
	w.stop()
	w.gate()
	if total1 > total0 {
		fmt.Printf("host: CPU time stolen by the hypervisor while measuring: %.2f%%\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}

	m.add("setup_s", medianF(setups), "s", fmt.Sprintf("median of %d setups", len(setups)))
	fmt.Println("segments ops/s:", untraced.segRates())
	fmt.Printf("segments steal: %.3f\n", untraced.steal)
	untracedRate := untraced.rate()
	m.add("sync_rate", untracedRate, "ops/s", fmt.Sprintf("n=%d %s, median of %d segments", untraced.totalOps(), w.opName(), len(untraced.ops)))
	m.latency("wake_p50_us", untraced.s("wake"), 0.5, "us", 1e3)
	m.latency("wake_p90_us", untraced.s("wake"), 0.9, "us", 1e3)
	m.latency("pred_wake_p50_us", untraced.s("pred_wake"), 0.5, "us", 1e3)
	m.latency("pred_wake_p90_us", untraced.s("pred_wake"), 0.9, "us", 1e3)
	// An end-to-end quantile without samples would read as 0, the best
	// value there is: lost wakes must fail the run instead.
	for _, x := range m.list {
		if x.missing {
			r.check(false, "%s: no segment has the samples for it (%s)", x.name, x.note)
		}
	}
	if !traced {
		// The phase's samples are the benchmark's memory, not the
		// program's: drop them before the workload measures its hosts.
		untraced = nil
		r.cur.Store(newPhase(r, 1, false))
		mem, note := w.hostMem()
		m.add("host_mem_mib", mem, "MiB", note)
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	m.ratio("fail_ratio", float64(failed), float64(attempted), "share", "operations")
	if traced {
		w.layers(&m, tph, before, after)
		runtimeLayer(&m, tph, before, after)
		m.ratio("trace.overhead_ratio", tph.rate(), untracedRate, "ratio", "traced/untraced ops/s")
	}
	for _, x := range m.list {
		fmt.Printf("%-28s %14.6g %-6s (%s)\n", x.name, x.value, x.unit, x.note)
	}
	if traced {
		all := flatten(tph.tracers)
		for _, line := range spanSummary(all) {
			fmt.Println(line)
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wname, seed))
		if err := writeSpans(path, all); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		dropped := 0
		for _, t := range tph.tracers {
			dropped += t.dropped
		}
		fmt.Printf("spans: %d kept in %s (%d sampled operations past the cap not kept)\n", len(all), path, dropped)
	}
	if n := lostStamps.Load(); n > 0 {
		fmt.Printf("releases not measured (stamp slot reused before it was read): %d\n", n)
	}
	for _, f := range r.failures() {
		fmt.Println("FAIL:", f)
	}

	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := map[string]any{}
	for _, x := range want {
		got, ok := m.get(x.Name)
		if !ok && traced && slices.Contains(w.offPath(), strings.SplitN(x.Name, ".", 2)[0]) {
			got, ok = metric{name: x.Name, unit: x.Unit, note: "layer not on this workload's path"}, true
			fmt.Printf("%-28s %14d %-6s (%s)\n", got.name, 0, got.unit, got.note)
		}
		if !ok {
			return fmt.Errorf("metric %s is listed in %s but was not measured", x.Name, specPath)
		}
		if got.unit != x.Unit {
			return fmt.Errorf("metric %s: unit %s, %s says %s", x.Name, got.unit, specPath, x.Unit)
		}
		out[x.Name] = map[string]any{"value": got.value, "unit": got.unit}
	}
	correct := failed == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	w.teardown()
	if !correct {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

func dur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// workload is one load shape. setup builds everything up to the first
// timed operation; start launches the drivers, which record into the
// runner's current phase until stop.
type workload interface {
	setup() error
	describe() string
	start()
	stop()
	// gate checks final values and releases, recording failures.
	gate()
	teardown()
	opName() string
	// hostMem is the memory of what hosts the counters: the counterd
	// processes, or the counters' share of this process's heap.
	hostMem() (float64, string)
	// snap captures the layer counters layers turns into per-layer
	// metrics over the traced phase.
	snap() snapshot
	// segment samples gauges at each segment end of the traced phase.
	segment()
	layers(m *metrics, ph *phase, before, after snapshot)
	// offPath names the layers this workload does not call; their
	// per-layer metrics report 0.
	offPath() []string
}

var workloads = map[string]func(*runner) workload{
	"local-wave":   newLocalWave,
	"wire-handoff": newHandoff,
	"wire-fanout":  newFanout,
}

// runner is shared by a workload's goroutines for one run.
type runner struct {
	seed     uint64
	counterd string
	cur      atomic.Pointer[phase]
	stop     atomic.Bool

	// heapBase is the live heap just before the kept setup began.
	heapBase uint64

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failMsgs          []string
	procs             []*counterd
}

// check counts one checked operation, failed unless ok.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failure of an operation already counted as attempted;
// the first few reasons are printed.
func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failMsgs) < 10 {
		r.failMsgs = append(r.failMsgs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *runner) failures() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.failMsgs...)
}

// guard runs f, recording a panic as a failed operation.
func (r *runner) guard(what string, f func()) {
	defer func() {
		if p := recover(); p != nil {
			r.check(false, "%s: panic: %v", what, p)
		}
	}()
	f()
}

// startCounterd starts a server process the runner stops at exit.
func (r *runner) startCounterd() (*counterd, error) {
	d, err := startCounterd(r.counterd)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.procs = append(r.procs, d)
	r.mu.Unlock()
	return d, nil
}

func (r *runner) stopCounterd(d *counterd) {
	d.stop()
	r.mu.Lock()
	for i, p := range r.procs {
		if p == d {
			r.procs = append(r.procs[:i], r.procs[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

func (r *runner) cleanup() {
	r.mu.Lock()
	procs := r.procs
	r.procs = nil
	r.mu.Unlock()
	for _, d := range procs {
		d.stop()
	}
}

// runPhase makes a new measured phase current for sec seconds.
func (r *runner) runPhase(sec float64, traced bool, w workload) *phase {
	ph := newPhase(r, sec, traced)
	r.cur.Store(ph)
	st0, tot0 := hostSteal()
	for i := 1; i <= len(ph.ops); i++ {
		time.Sleep(time.Duration(ph.start + int64(i)*ph.segLen - now()))
		st1, tot1 := hostSteal()
		if tot1 > tot0 {
			ph.steal = append(ph.steal, float64(st1-st0)/float64(tot1-tot0))
		} else {
			ph.steal = append(ph.steal, 0)
		}
		st0, tot0 = st1, tot1
		if traced {
			ph.sampleRuntime()
			w.segment()
		}
	}
	return ph
}

// seriesNames are the latencies and span durations a phase records.
var seriesNames = []string{
	"wake", "pred_wake", "deliver",
	"core.inc", "core.inc_wake", "core.check", "core.check_hit_list", "core.check_hit_sharded",
	"remote.inc", "remote.check_reg", "remote.window_wait", "cluster.inc",
	"wait.arm", "wire.append", "wire.decode",
}

// phase is one stretch of a run whose figures are reported together.
type phase struct {
	r       *runner
	traced  bool
	start   int64
	segLen  int64
	series  map[string]*series
	ops     []atomic.Int64 // per segment
	steal   []float64      // per segment: share of CPU time the hypervisor stole
	tracers []*tracer

	// runtime samples, taken at segment ends of a traced phase
	heapPeak       uint64
	goroutinesPeak int
}

func newPhase(r *runner, sec float64, traced bool) *phase {
	nseg := max(2, int(sec/segSeconds+0.5))
	ph := &phase{r: r, traced: traced, start: now(), segLen: int64(sec * 1e9 / float64(nseg)),
		series: map[string]*series{}, ops: make([]atomic.Int64, nseg)}
	rng := r.seed ^ uint64(ph.start)
	for _, n := range seriesNames {
		ph.series[n] = newSeries(nseg, &rng)
	}
	if traced {
		ph.tracers = []*tracer{newTracer(ph), newTracer(ph)}
	}
	return ph
}

func (ph *phase) seg(t int64) int {
	return max(0, min(len(ph.ops)-1, int((t-ph.start)/ph.segLen)))
}

func (ph *phase) s(name string) *series { return ph.series[name] }

// tracer returns driver i's tracer, or nil when the phase is untraced.
func (ph *phase) tracer(i int) *tracer {
	if !ph.traced {
		return nil
	}
	return ph.tracers[i]
}

// record adds a sample taken at time at to the named series.
func (ph *phase) record(name string, v, at int64) {
	s := ph.series[name]
	if s == nil {
		panic("perfbench: unknown series " + name)
	}
	s.add(ph.seg(at), v)
}

// op counts n completed operations at time at.
func (ph *phase) op(at, n int64) { ph.ops[ph.seg(at)].Add(n) }

func (ph *phase) totalOps() int64 {
	var n int64
	for i := range ph.ops {
		n += ph.ops[i].Load()
	}
	return n
}

// rate is the median over segments of operations per second.
func (ph *phase) rate() float64 { return medianF(ph.segRates()) }

func (ph *phase) segRates() []float64 {
	per := make([]float64, len(ph.ops))
	for i := range ph.ops {
		per[i] = float64(ph.ops[i].Load()) / (float64(ph.segLen) / 1e9)
	}
	return per
}

func (ph *phase) sampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heapPeak = max(ph.heapPeak, ms.HeapAlloc)
	ph.goroutinesPeak = max(ph.goroutinesPeak, runtime.NumGoroutine())
}

// wake records a wait on a single-writer counter released at t: its
// latency from the Increment that reached level, and the delivery share
// after that Increment returned. A release before that Increment
// started is a failure.
func (r *runner) wake(ph *phase, series string, ring *stampRing, level uint64, t int64) {
	r.attempted.Add(1)
	st, state := ring.start(level)
	switch state {
	case stampEarly:
		r.fail("%s at level %d released before its Increment started", series, level)
		return
	case stampLost:
		lostStamps.Add(1)
		return
	}
	ph.record(series, t-st, t)
	if ph.traced {
		if end, ok := ring.end(level); ok {
			ph.record("deliver", max(0, t-end), t)
		}
	}
}

// predWake records a predicate wait released at t.
func (r *runner) predWake(ph *phase, p predShape, rings []*stampRing, t int64) {
	r.attempted.Add(1)
	st, state := flipTime(p, rings)
	switch state {
	case stampEarly:
		r.fail("predicate %+v released before the Increment that flips it started", p)
		return
	case stampLost:
		lostStamps.Add(1)
		return
	}
	ph.record("pred_wake", t-st, t)
}

// lostStamps counts releases whose stamp was overwritten before it was
// read; they are reported, not measured.
var lostStamps atomic.Int64

// snapshot holds the layer counters at one moment.
type snapshot struct {
	t        int64
	mallocs  uint64
	bytes    uint64
	numGC    uint32
	pauseNs  [256]uint64
	cpuTicks int64
	conn     connCounts
	procs    []procStat
	engine   engineStats // in-process stage counters
	tally    engineStats // in-process sharded tally
	hosted   engineStats // counters inside counterd
	conds    condTotals
	waits    int64 // wire-level waits the benchmark sent
}

// runtimeSnap fills the runtime part of a snapshot.
func runtimeSnap(s *snapshot) {
	s.t = now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes, s.numGC, s.pauseNs = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseNs
	if p, err := readProc("self"); err == nil {
		s.cpuTicks = p.cpuTicks
	}
}

// runtimeLayer reports the benchmark process's own runtime costs per
// operation over the traced phase.
func runtimeLayer(m *metrics, ph *phase, a, b snapshot) {
	ops := float64(ph.totalOps())
	m.ratio("runtime.allocs_per_op", float64(b.mallocs-a.mallocs), ops, "allocs/op", "ops")
	m.ratio("runtime.bytes_per_op", float64(b.bytes-a.bytes), ops, "B/op", "ops")
	m.ratio("runtime.cpu_us_per_op", float64(b.cpuTicks-a.cpuTicks)*1e6/clockTicks, ops, "us/op", "ops")
	m.ratio("runtime.gc_per_kop", float64(b.numGC-a.numGC)*1000, ops, "GC/kop", "ops")
	pauses := gcPauses(a, b)
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	top := topQuantile(int64(len(pauses)))
	m.add("runtime.gc_pause_p50_us", quantile(pauses, 0.5)/1e3, "us",
		fmt.Sprintf("n=%d GCs, %s %.1f us", len(pauses), qname(top), quantile(pauses, top)/1e3))
	m.add("runtime.heap_peak_mib", float64(ph.heapPeak)/(1<<20), "MiB", "max HeapAlloc at segment ends")
	m.add("runtime.goroutines_peak", float64(ph.goroutinesPeak), "count", "max at segment ends")
}

// gcPauses returns the pauses of the GCs between two snapshots, as b
// recorded them: GC n's pause sits at PauseNs[(n-1)%256], and only the
// last 256 are kept.
func gcPauses(a, b snapshot) []int64 {
	var pauses []int64
	for i := max(a.numGC, max(b.numGC, 256)-256); i < b.numGC; i++ {
		pauses = append(pauses, int64(b.pauseNs[i%256]))
	}
	return pauses
}

// spreadNote describes a parameter table for the run header.
func spreadNote(name string, v []uint64) string {
	s := append([]uint64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return fmt.Sprintf("%s %d..%d (median %d)", name, s[0], s[len(s)-1], s[len(s)/2])
}
