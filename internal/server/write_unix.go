//go:build unix

package server

import "syscall"

// writeNow makes one non-blocking write(2) of buf and returns how many
// bytes the socket took. Any error counts as 0 bytes: the writer
// goroutine's blocking write then reports it. The caller owns the
// write side, which guards the raw* fields.
func (c *conn) writeNow(buf []byte) int {
	if c.rc == nil {
		return 0
	}
	if c.rawFn == nil {
		c.rawFn = c.rawWrite // built once, so a write allocates nothing
	}
	c.rawBuf, c.rawN = buf, 0
	if err := c.rc.Write(c.rawFn); err != nil {
		return 0
	}
	return max(c.rawN, 0)
}

func (c *conn) rawWrite(fd uintptr) bool {
	c.rawN, _ = syscall.Write(int(fd), c.rawBuf)
	return true // never wait for the socket: the writer goroutine does
}
