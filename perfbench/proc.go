package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// counterd is one server process on loopback.
type counterd struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

// startCounterd launches the counterd binary on an ephemeral loopback
// port and returns once it reports the address it serves.
func startCounterd(bin string) (*counterd, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start counterd: %w", err)
	}
	d := &counterd{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		const banner = "counterd: serving counters on "
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), banner); ok {
				addr <- a
			}
		}
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.done:
	case <-time.After(10 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("counterd did not report its address")
}

func (d *counterd) pid() int { return d.cmd.Process.Pid }

// stop terminates the process and waits until it has exited.
func (d *counterd) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.cmd.Wait()
}

// procStat is what /proc reports about one process.
type procStat struct {
	cpuTicks    int64 // utime + stime, in clock ticks
	hwmKiB      int64 // VmHWM: peak resident set
	threads     int64
	voluntary   int64
	involuntary int64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// readProc reads /proc/<pid>/stat and /proc/<pid>/status; pid "self"
// reads this process. A process's status counts only its main thread's
// context switches, so those are summed over /proc/<pid>/task/*/status.
func readProc(pid string) (procStat, error) {
	var p procStat
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return p, err
	}
	if p.cpuTicks, err = parseStatCPU(string(stat)); err != nil {
		return p, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return p, err
	}
	if err := parseStatus(string(status), &p); err != nil {
		return p, err
	}
	tasks, err := os.ReadDir("/proc/" + pid + "/task")
	if err != nil {
		return p, err
	}
	p.voluntary, p.involuntary = 0, 0
	for _, t := range tasks {
		ts, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/status")
		if err != nil {
			continue // the thread exited
		}
		var tp procStat
		if err := parseStatus(string(ts), &tp); err != nil {
			return p, err
		}
		p.voluntary += tp.voluntary
		p.involuntary += tp.involuntary
	}
	return p, nil
}

// parseStatCPU sums utime and stime (fields 14 and 15) of a stat line.
// The command name (field 2) may hold spaces, so fields are counted from
// its closing parenthesis.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields", len(f)+2)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return u + s, nil
}

func parseStatus(status string, p *procStat) error {
	fields := map[string]*int64{
		"VmHWM":                      &p.hwmKiB,
		"Threads":                    &p.threads,
		"voluntary_ctxt_switches":    &p.voluntary,
		"nonvoluntary_ctxt_switches": &p.involuntary,
	}
	seen := 0
	for _, line := range strings.Split(status, "\n") {
		k, v, ok := strings.Cut(line, ":")
		dst := fields[k]
		if !ok || dst == nil {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		if err != nil {
			return fmt.Errorf("status %s: %w", k, err)
		}
		*dst = n
		seen++
	}
	if seen != len(fields) {
		return fmt.Errorf("status: %d of %d fields", seen, len(fields))
	}
	return nil
}

// hostSteal reads the machine's steal time and total CPU time, in clock
// ticks, from the first line of /proc/stat; zeros if it cannot. Steal is
// time a virtual machine's CPUs were runnable but the hypervisor ran
// something else: it explains runs that are slow for no reason of their
// own.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// connCounts are the totals a countingDialer's connections have seen.
type connCounts struct {
	dials, writes, reads, bytesOut, bytesIn, framesOut, framesIn int64
}

// countingDialer dials TCP and counts calls, bytes and wire frames on
// every connection it made. Frames are counted by following the 4-byte
// length prefixes of the byte stream in each direction.
type countingDialer struct {
	dials, writes, reads, bytesOut, bytesIn, framesOut, framesIn atomic.Int64
}

func (d *countingDialer) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &countingConn{Conn: c, d: d}, nil
}

func (d *countingDialer) counts() connCounts {
	return connCounts{d.dials.Load(), d.writes.Load(), d.reads.Load(), d.bytesOut.Load(),
		d.bytesIn.Load(), d.framesOut.Load(), d.framesIn.Load()}
}

type countingConn struct {
	net.Conn
	d       *countingDialer
	wmu     sync.Mutex // Write may be called from several goroutines
	in, out frameCounter
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.d.writes.Add(1)
	c.d.bytesOut.Add(int64(n))
	c.wmu.Lock()
	c.d.framesOut.Add(c.out.feed(b[:n]))
	c.wmu.Unlock()
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.d.reads.Add(1)
	c.d.bytesIn.Add(int64(n))
	c.d.framesIn.Add(c.in.feed(b[:n]))
	return n, err
}

// frameCounter follows a stream of length-prefixed frames.
type frameCounter struct {
	hdr  [4]byte
	nhdr int   // header bytes seen of the current frame
	left int64 // payload bytes still to skip
}

// feed consumes the next bytes of the stream and returns how many frames
// they completed.
func (f *frameCounter) feed(b []byte) int64 {
	var frames int64
	for len(b) > 0 {
		if f.nhdr < 4 {
			k := copy(f.hdr[f.nhdr:], b)
			f.nhdr += k
			b = b[k:]
			if f.nhdr < 4 {
				break
			}
			f.left = int64(binary.BigEndian.Uint32(f.hdr[:]))
		}
		k := min(int64(len(b)), f.left)
		f.left -= k
		b = b[k:]
		if f.left == 0 {
			frames++
			f.nhdr = 0
		}
	}
	return frames
}
