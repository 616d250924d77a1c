//go:build !unix

package server

// writeNow hands every write to the writer goroutine on platforms
// without a non-blocking write(2).
func (c *conn) writeNow([]byte) int { return 0 }
