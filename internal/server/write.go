package server

import "monotonic/internal/wire"

// The write side: the goroutine that queues a frame also writes it. A
// reader lists every connection its batch queued frames on — replies,
// acks, and the wakes its increments fired, on any connection — and
// flushes them just before its next read(2), the point where it could
// block, with one non-blocking write(2) per connection. A predicate
// wake may fire on a predicate.Cond kick goroutine that no reader
// follows, so it flushes at once. The per-connection writer goroutine
// only finishes what a socket would not take, so a peer that stops
// reading stalls its own writer and no reader.

// send queues one frame, behind the ack owed if there is one, and lists
// c for the next flush.
func (c *conn) send(f *wire.Frame) {
	c.wmu.Lock()
	c.queueLocked(f)
	c.wmu.Unlock()
}

// queueLocked is send with wmu held.
func (c *conn) queueLocked(f *wire.Frame) {
	if c.wclosed {
		return
	}
	if c.owedAck != 0 {
		c.wq = wire.Append(c.wq, &wire.Frame{Op: wire.OpIncAck, Seq: c.owedAck})
		c.ackedSeq, c.owedAck = c.owedAck, 0
	}
	c.wq = wire.Append(c.wq, f)
	if !c.dirty {
		c.dirty = true
		c.srv.dmu.Lock()
		c.srv.dirty = append(c.srv.dirty, c)
		c.srv.dmu.Unlock()
	}
}

// ack acknowledges the session's applied increments. The OpIncAck goes
// out now when another frame is already queued for it to ride with,
// when c has no parked wait, or when ackEvery increments are
// unacknowledged. Otherwise it is owed: queueLocked puts it just ahead
// of the next frame queued to c. Every parked wait ends in OpWake,
// OpCancelled or teardown, so an owed ack always leaves. The parked
// check runs under wmu, so a wake that races it either is seen
// leaving or finds the ack owed.
func (c *conn) ack() {
	c.sess.mu.Lock()
	seq := c.sess.lastSeq
	c.sess.mu.Unlock()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if seq <= c.ackedSeq {
		return
	}
	if len(c.wq) == 0 && seq-c.ackedSeq < ackEvery && c.parked() {
		c.owedAck = seq
		return
	}
	c.ackedSeq, c.owedAck = seq, 0
	c.queueLocked(&wire.Frame{Op: wire.OpIncAck, Seq: seq})
}

// parked reports whether c has a wait parked.
func (c *conn) parked() bool {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	return len(c.waits) > 0
}

// flush writes c's queued frames now, with non-blocking writes, until
// the queue is empty. If another goroutine owns the write side, that
// owner writes them instead. What the socket will not take goes to the
// writer goroutine.
func (c *conn) flush() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// A listed c is flushed here; a later send lists it again.
	c.dirty = false
	if c.writing {
		return
	}
	for len(c.wq) > 0 && !c.wclosed {
		buf := c.wq
		c.wq, c.spare = c.spare[:0], nil
		c.writing = true
		c.wmu.Unlock()
		n := c.writeNow(buf)
		c.wmu.Lock()
		if n < len(buf) {
			c.rest, c.restOff = buf, n
			c.wcond.Signal()
			return
		}
		c.spare, c.writing = buf, false
	}
}

// flushDirty flushes every listed connection. spare becomes the
// server's next list and the flushed one comes back emptied, for the
// caller to pass in next time, so the lists stop allocating once they
// have grown.
func (s *Server) flushDirty(spare []*conn) []*conn {
	s.dmu.Lock()
	list := s.dirty
	s.dirty = spare
	s.dmu.Unlock()
	for i, c := range list {
		c.flush()
		list[i] = nil
	}
	return list[:0]
}

// drainReader is a connection's read side: before each read(2) it
// flushes every listed connection. bufio reads only when it holds no
// complete frame, so this is the moment the reader's batch is done,
// and it also covers a peer that stops mid-frame.
type drainReader struct {
	c     *conn
	spare []*conn
}

func (r *drainReader) Read(p []byte) (int, error) {
	r.spare = r.c.srv.flushDirty(r.spare)
	return r.c.nc.Read(p)
}

// writeLoop finishes, with blocking writes, what a socket would not
// take from a flush, then flushes whatever queued meanwhile. On a
// connection whose peer keeps up, it never wakes.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	for {
		c.wmu.Lock()
		for c.rest == nil && !c.wclosed {
			c.wcond.Wait()
		}
		buf, off, closed := c.rest, c.restOff, c.wclosed
		c.rest = nil
		c.wmu.Unlock()
		if closed {
			return
		}
		if _, err := c.nc.Write(buf[off:]); err != nil {
			c.teardown()
			return
		}
		c.wmu.Lock()
		c.spare, c.writing = buf[:0], false
		c.wmu.Unlock()
		c.flush()
	}
}
