package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

const (
	// jobTimeout bounds one child process. The longest job takes a few
	// seconds; the driver allows a whole run 180 s.
	jobTimeout = 60 * time.Second
	// workerGrace is how long a worker may take to notice that its master
	// has exited before it is killed.
	workerGrace = 5 * time.Second
	stderrKeep  = 2048
)

// proc is one started child process in its own process group, so that a
// timeout or an interrupt kills whatever it spawned as well.
type proc struct {
	cmd      *exec.Cmd
	out, err bytes.Buffer
	start    time.Time
	span     int
	tr       *tracer
	stopPoll chan struct{}
	peakRSS  chan int64 // the poller's result, sent once after stopPoll closes
}

// procResult is what one child process cost and said.
type procResult struct {
	wall    time.Duration
	cpu     time.Duration
	rssKB   int64
	stdout  string
	stderr  string
	failure string // "" when the process exited 0 in time
}

func startProc(tr *tracer, parent int, bin string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), tr: tr}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.err
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p.span = tr.begin(parent, "proc:"+baseName(bin))
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		tr.end(p.span)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p.stopPoll, p.peakRSS = make(chan struct{}), make(chan int64, 1)
	go func() { p.peakRSS <- pollPeakRSS(p.cmd.Process.Pid, p.stopPoll) }()
	return p, nil
}

func (p *proc) kill() {
	// Negative pid: the whole group. The only error is "no such process",
	// which means the group is already gone.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
}

// wait reaps the process. It is killed, and still reaped, when timeout
// passes or ctx is cancelled first.
func (p *proc) wait(ctx context.Context, timeout time.Duration) procResult {
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var res procResult
	var err error
	timedOut := false
	select {
	case err = <-done:
	case <-timer.C:
		p.kill()
		err = <-done
		timedOut = true
	case <-ctx.Done():
		p.kill()
		err = <-done
	}
	res.wall = time.Since(p.start)
	p.tr.end(p.span)
	close(p.stopPoll)
	res.rssKB = <-p.peakRSS
	if st := p.cmd.ProcessState; st != nil {
		res.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok && res.rssKB == 0 {
			res.rssKB = ru.Maxrss // the process ended before the first poll
		}
	}
	res.stdout = p.out.String()
	res.stderr = tail(p.err.String(), stderrKeep)
	switch {
	case timedOut:
		res.failure = fmt.Sprintf("timeout after %s", timeout)
	case ctx.Err() != nil:
		res.failure = "interrupted"
	case err != nil:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			res.failure = fmt.Sprintf("exit %d", ee.ExitCode())
		} else {
			res.failure = err.Error()
		}
	}
	return res
}

// rssPoll is how often a child's peak RSS is read.
const rssPoll = 10 * time.Millisecond

// pollPeakRSS reads the child's VmHWM until stop closes and returns the
// largest value seen, in kilobytes. The rusage of a reaped child cannot
// serve: its ru_maxrss starts from the peak RSS of the process that forked
// it, so every job would report at least the harness's own peak, graph
// generation and probes included. VmHWM belongs to the address space the
// child got at exec and is itself a high-water mark, so only growth in the
// child's last few milliseconds can be missed.
func pollPeakRSS(pid int, stop <-chan struct{}) int64 {
	path := fmt.Sprintf("/proc/%d/status", pid)
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	var peak int64
	for {
		if data, err := os.ReadFile(path); err == nil {
			peak = max(peak, vmHWM(data))
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// vmHWM extracts the "VmHWM:   1234 kB" line of /proc/<pid>/status; 0 when
// the process has no address space (not yet exec'ed, or a zombie).
func vmHWM(status []byte) int64 {
	i := bytes.Index(status, []byte("VmHWM:"))
	if i < 0 {
		return 0
	}
	var kb int64
	for _, c := range status[i+len("VmHWM:"):] {
		switch {
		case c >= '0' && c <= '9':
			kb = kb*10 + int64(c-'0')
		case kb > 0 || c == '\n':
			return kb
		}
	}
	return kb
}

func runProc(ctx context.Context, tr *tracer, parent int, timeout time.Duration, bin string, args ...string) procResult {
	p, err := startProc(tr, parent, bin, args...)
	if err != nil {
		return procResult{failure: err.Error()}
	}
	return p.wait(ctx, timeout)
}

// runDist runs one distributed job: a master on a free loopback port and
// two single-core workers. Wall is master spawn to master exit; CPU and
// peak RSS are summed over the three processes. Workers are reaped on every
// path.
func runDist(ctx context.Context, tr *tracer, parent int, masterBin, workerBin string, args []string) procResult {
	addr, err := freeAddr()
	if err != nil {
		return procResult{failure: err.Error()}
	}
	margs := append(append([]string(nil), args...), "-listen", addr, "-min-workers", "2", "-cores", "1")
	master, err := startProc(tr, parent, masterBin, margs...)
	if err != nil {
		return procResult{failure: err.Error()}
	}
	procs := []*proc{master}
	for i := 0; i < 2; i++ {
		w, err := startProc(tr, parent, workerBin, "-master", addr, "-cores", "1")
		if err != nil {
			for _, p := range procs {
				p.kill()
				p.wait(ctx, workerGrace)
			}
			return procResult{failure: err.Error()}
		}
		procs = append(procs, w)
	}
	res := master.wait(ctx, jobTimeout)
	for i, w := range procs[1:] {
		wr := w.wait(ctx, workerGrace)
		res.cpu += wr.cpu
		res.rssKB += wr.rssKB
		if wr.failure != "" && res.failure == "" {
			res.failure = fmt.Sprintf("worker %d: %s", i, wr.failure)
			res.stderr = wr.stderr
		}
	}
	return res
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the master binds it; the harness runs one job at a time,
// so nothing of its own can take it in between.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func tail(s string, n int) string {
	if len(s) > n {
		s = "…" + s[len(s)-n:]
	}
	return strings.TrimSpace(s)
}

func baseName(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}
