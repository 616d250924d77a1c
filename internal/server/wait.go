package server

import (
	"fmt"

	"monotonic/internal/wire"
)

// Every remote wait parks the same way: as a one-shot callback on the
// engine's own wake path, with no goroutine of its own. An OpCheck arms
// a core sentinel at its level on the hosted counter — one node per
// distinct level, one wake per satisfied level, the paper's cost unit —
// and an OpWaitFor arms a predicate.Cond, whose sentinels sit at
// pigeonhole frontiers on the same waitlists (predwait.go). The
// callback runs on the satisfying increment's goroutine: it drops the
// table entry and queues the wake, both leaf locks, and never blocks;
// the reader that ran the increment writes the wake (write.go).

// wait is one parked registration in a connection's wait table.
type wait struct {
	level uint64      // echoed in the OpWake; 0 for a predicate
	pred  bool        // an OpWaitFor entry, counted by PredicateWaits
	holds func() bool // reports whether the wait is satisfied now
	// cancel disarms the callback; nil until park finishes arming.
	// dead marks a teardown that raced the arming — whoever sets
	// cancel second runs it. Both guarded by conn.waitMu.
	cancel func() bool
	dead   bool
}

// armFunc arms fn to run exactly once when a wait is satisfied. armed
// == false means it already holds: fn will never run.
type armFunc func(fn func()) (cancel func() bool, armed bool)

// park publishes w under the client's id, then arms it. A wait that
// already holds is answered straight away and parks nothing. The entry
// is published before arming so a racing teardown can see it.
func (c *conn) park(id uint64, w *wait, arm armFunc) error {
	c.waitMu.Lock()
	if c.waits == nil {
		c.waitMu.Unlock()
		return nil // torn down: the socket is closed, nobody to answer
	}
	if _, dup := c.waits[id]; dup {
		c.waitMu.Unlock()
		return fmt.Errorf("server: duplicate wait id %d", id)
	}
	c.waits[id] = w
	c.waitMu.Unlock()
	wake := func() {
		c.drop(id)
		c.send(&wire.Frame{Op: wire.OpWake, ID: id, Level: w.level})
		if w.pred {
			c.flush() // a Cond may settle on a kick goroutine no reader follows
		}
	}
	cancel, armed := arm(wake)
	if !armed {
		wake()
		return nil
	}
	c.waitMu.Lock()
	if w.dead {
		// Teardown swept the table between publish and arm: unwind.
		c.waitMu.Unlock()
		cancel()
		return nil
	}
	w.cancel = cancel
	c.waitMu.Unlock()
	return nil
}

// drop forgets the wait with id.
func (c *conn) drop(id uint64) {
	c.waitMu.Lock()
	delete(c.waits, id)
	c.waitMu.Unlock()
}

// cancelWait answers OpCancel and OpWaitForCancel alike. It disarms
// first: if the callback already fired, its OpWake answers the race. If
// the disarm won, satisfied still beats cancelled, judged now — this
// connection's increments are applied in frame order, so a pipelined
// increment-then-cancel that reached the wait is answered OpWake, as
// in-process.
func (c *conn) cancelWait(id uint64) {
	c.waitMu.Lock()
	w := c.waits[id]
	c.waitMu.Unlock()
	// park ran to completion on this goroutine, so a published w has
	// its cancel set.
	if w == nil || !w.cancel() {
		return
	}
	c.drop(id)
	if w.holds() {
		c.send(&wire.Frame{Op: wire.OpWake, ID: id, Level: w.level})
	} else {
		c.send(&wire.Frame{Op: wire.OpCancelled, ID: id})
	}
}

// dropWaits disarms every parked wait at connection teardown and
// closes the table to new ones. Entries still mid-arming are marked
// dead so park unwinds them itself.
func (c *conn) dropWaits() {
	c.waitMu.Lock()
	ws := c.waits
	c.waits = nil
	for _, w := range ws {
		w.dead = true
	}
	c.waitMu.Unlock()
	for _, w := range ws {
		if w.cancel != nil {
			w.cancel()
		}
	}
}
