package counter

import (
	"expvar"
	"sync"
	"sync/atomic"

	"monotonic/internal/core"
)

// Stats are a counter's cumulative cost-model measurements — the paper's
// section 7 claims ("storage and time proportional to distinct waited-on
// levels, not waiters") made observable in production. Counters only
// ever grow; Reset does not clear them, so they can be exported as
// monotone metrics.
//
// In any snapshot, Broadcasts <= SatisfiedLevels and ChannelCloses <=
// SatisfiedLevels: the wake tallies lag the satisfied-level count during
// a wake storm and catch up once the storm's wake-ups finish. See
// docs/PATTERNS.md ("Observing a counter in production") for how to read
// each field against the cost model.
//
// A remote counter (counter/remote) reports the server-side engine's
// values for the shared fields — they describe the hosted counter, which
// every client session contributes to — plus the Remote* fields, which
// are client-local wall-clock measurements of the wire itself.
type Stats struct {
	// PeakLevels is the maximum number of distinct not-yet-satisfied
	// levels ever waited on at once — the paper's storage bound.
	PeakLevels int
	// SatisfiedLevels counts levels satisfied by increments — the
	// paper's "one wake-up per satisfied level" cost unit.
	SatisfiedLevels uint64
	// Broadcasts counts condition-variable broadcasts issued by the wake
	// path (levels whose waiters all parked cancellably need none).
	Broadcasts uint64
	// ChannelCloses counts ready-channel closes issued by the wake path —
	// the cancellable-wait counterpart of Broadcasts.
	ChannelCloses uint64
	// Suspends counts Check/CheckContext calls that actually blocked.
	Suspends uint64
	// ImmediateChecks counts Check/CheckContext calls satisfied without
	// blocking.
	ImmediateChecks uint64
	// Increments counts value-changing Increment calls (Increment(0) is
	// a no-op and is not counted).
	Increments uint64
	// FastPathIncrements counts increments absorbed by the sharded
	// design's lock-free striped fast path (Sharded, and every counter
	// counterd hosts); always included in Increments. Zero for every
	// other implementation.
	FastPathIncrements uint64
	// Flushes counts the sharded design's stripe-flush passes. Zero for
	// every other implementation.
	Flushes uint64
	// RemoteRoundTrips counts completed wire exchanges a remote counter
	// performed on the caller's behalf: resolved waits (wakes and
	// cancel acknowledgements), increment acknowledgements, and
	// stats/reset replies. Zero for in-process counters.
	RemoteRoundTrips uint64
	// RemoteWaitNanos accumulates wall-clock nanoseconds remote
	// Check/CheckContext calls spent blocked on the wire — the
	// client-side latency counterpart of Suspends. Zero for in-process
	// counters.
	RemoteWaitNanos uint64
}

func statsFromCore(s core.Stats) Stats {
	return Stats{
		PeakLevels:         s.PeakLevels,
		SatisfiedLevels:    s.SatisfiedLevels,
		Broadcasts:         s.Broadcasts,
		ChannelCloses:      s.ChannelCloses,
		Suspends:           s.Suspends,
		ImmediateChecks:    s.ImmediateChecks,
		Increments:         s.Increments,
		FastPathIncrements: s.FastPathIncrements,
		Flushes:            s.Flushes,
	}
}

// StatsProvider is satisfied by every counter in this module (and
// anything else that reports counter stats); Publish exports any
// provider.
type StatsProvider interface {
	Stats() Stats
}

// Event is one probe observation; see SetProbe on any counter type.
type Event = core.Event

// EventKind discriminates probe events.
type EventKind = core.EventKind

// The probe event kinds.
const (
	// EventIncrement fires once per value-changing Increment, after the
	// counter's locks are released; Event.Level carries the amount.
	EventIncrement = core.EventIncrement
	// EventSuspend fires when a waiter is about to park; Event.Level is
	// the level waited on.
	EventSuspend = core.EventSuspend
	// EventWake fires once per satisfied level as its waiters are woken;
	// Event.Level is the level.
	EventWake = core.EventWake
)

// published tracks the expvar names this package owns, each holding a
// swappable provider, so Publish can replace a counter under a name it
// registered before instead of inheriting expvar.Publish's panic.
var published struct {
	sync.Mutex
	m map[string]*atomic.Pointer[StatsProvider]
}

// Publish registers p's stats with package expvar under the given name,
// so they appear (live, as a JSON object) on the standard /debug/vars
// endpoint. Each read of the variable takes a fresh snapshot.
//
// Calling Publish again with a name it has already registered replaces
// the provider atomically — the expvar variable starts reporting the
// new counter — so re-wiring a counter at runtime (or re-running setup
// in tests) is safe. Publish panics only if the name is already taken
// by a different package's expvar.Publish, which this package cannot
// replace; use PublishOnce to make any duplicate a hard error instead.
func Publish(name string, p StatsProvider) {
	published.Lock()
	defer published.Unlock()
	if h, ok := published.m[name]; ok {
		h.Store(&p)
		return
	}
	h := new(atomic.Pointer[StatsProvider])
	h.Store(&p)
	if published.m == nil {
		published.m = make(map[string]*atomic.Pointer[StatsProvider])
	}
	published.m[name] = h
	expvar.Publish(name, expvar.Func(func() any { return (*h.Load()).Stats() }))
}

// PublishOnce is Publish with the strict expvar contract: it panics if
// name was ever published before (by this package or any other), for
// callers that want accidental reuse of a metric name to fail loudly at
// setup.
func PublishOnce(name string, p StatsProvider) {
	published.Lock()
	_, dup := published.m[name]
	published.Unlock()
	if dup {
		panic("counter: PublishOnce of duplicate name " + name)
	}
	Publish(name, p)
}
