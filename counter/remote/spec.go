package remote

import (
	cwait "monotonic/counter/wait"
	"monotonic/internal/wire"
)

// Server-side predicate waits. A Client is a wait.SpecHost:
// counter/wait's combinators, seeing every watched counter nominate the
// same Client, arm ONE OpWaitFor registration here instead of one
// sentinel (one wire-level wait, re-sent per frontier move) per watched
// counter. The server parks one predicate entry per registration and
// answers with a single OpWake when the predicate flips — increments
// that cannot flip it cost this client zero frames in either direction.

// specWait is one outstanding OpWaitFor registration.
type specWait struct {
	id    uint64
	frame wire.Frame // the encoded OpWaitFor, kept for reconnect replay
	fire  func(satisfied bool)
}

// specFrame encodes a wait.Spec into an OpWaitFor frame, reporting
// false for specs the wire cannot carry.
func specFrame(spec cwait.Spec) (wire.Frame, bool) {
	if !spec.Encodable() {
		return wire.Frame{}, false
	}
	names, ok := spec.Names()
	if !ok {
		return wire.Frame{}, false
	}
	f := wire.Frame{Op: wire.OpWaitFor, Watch: make([]wire.Watch, len(names))}
	switch spec.Kind {
	case cwait.KindSum:
		f.Pred = wire.PredSum
		f.Target = spec.Target
		for i, n := range names {
			f.Watch[i] = wire.Watch{Name: n}
		}
	case cwait.KindThreshold:
		f.Pred = wire.PredThreshold
		f.K = uint64(spec.K)
		for i, n := range names {
			f.Watch[i] = wire.Watch{Name: n, Level: spec.Levels[i]}
		}
	default:
		return wire.Frame{}, false
	}
	return f, true
}

// ArmSpec registers spec for server-side evaluation, making the Client
// a wait.SpecHost. It refuses (ok = false) when the spec is not
// wire-encodable or the client is closed/poisoned — the caller then
// evaluates client-side. An accepted registration survives reconnects:
// the frame is re-sent with the rest of the session state, and
// monotonicity makes the re-send idempotent.
// fire(true) arrives when the server observes the predicate holding;
// fire(false) when the registration can no longer be honoured (the
// client closed).
//
// ArmSpec and the returned cancel are called under the predicate
// engine's lock; both only take cl.mu and enqueue — no round trips.
func (cl *Client) ArmSpec(spec cwait.Spec, fire func(satisfied bool)) (cancel func() bool, ok bool) {
	f, ok := specFrame(spec)
	if !ok {
		return nil, false
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed || cl.fatal != nil {
		return nil, false
	}
	cl.nextID++
	f.ID = cl.nextID
	sw := &specWait{id: f.ID, frame: f, fire: fire}
	cl.specWaits[f.ID] = sw
	cl.enqueueLocked(&f)
	return func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		if _, live := cl.specWaits[sw.id]; !live {
			return false // fire already delivered (or on its way through dispatch)
		}
		delete(cl.specWaits, sw.id)
		// Fire-and-forget: the server answers OpCancelled (or OpWake if
		// satisfaction won the race); both find no entry and are dropped.
		cl.enqueueLocked(&wire.Frame{Op: wire.OpWaitForCancel, ID: sw.id})
		return true
	}, true
}

// WireStats reports the total frames this client has enqueued to and
// received from the server over its lifetime, across reconnects. Tests
// and experiments use the deltas to assert wire-cost bounds — e.g. E27
// pins "zero frames in either direction on the waiting client per
// non-flipping increment".
func (cl *Client) WireStats() (sent, received uint64) {
	return cl.framesSent.Load(), cl.framesRecv.Load()
}
