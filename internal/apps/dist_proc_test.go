package apps

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fractal"
	"fractal/internal/workload"
)

// Cross-process end-to-end suite: the master is this test process (a
// WithListenAddr context), the workers are real fractal-worker OS processes
// built from cmd/fractal-worker. This is the deployment shape the binaries
// ship, including surviving a SIGKILL mid-step — no goroutine stand-ins.

var (
	workerBinOnce sync.Once
	workerBinPath string
	workerBinErr  error
)

// workerBin builds the fractal-worker binary once per test process.
func workerBin(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	workerBinOnce.Do(func() {
		dir, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			workerBinErr = err
			return
		}
		// Not a t.TempDir: the binary outlives the first test that builds it.
		tmp, err := os.MkdirTemp("", "fractal-dist-bin-")
		if err != nil {
			workerBinErr = err
			return
		}
		workerBinPath = filepath.Join(tmp, "fractal-worker")
		cmd := exec.Command("go", "build", "-o", workerBinPath, "./cmd/fractal-worker")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			workerBinErr = err
			t.Logf("go build cmd/fractal-worker: %s", out)
		}
	})
	if workerBinErr != nil {
		t.Fatalf("building fractal-worker: %v", workerBinErr)
	}
	return workerBinPath
}

// workerProc is one spawned fractal-worker OS process.
type workerProc struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

// spawnWorkerProc launches a fractal-worker process against masterAddr and
// registers cleanup that terminates it and reaps the child.
func spawnWorkerProc(t *testing.T, bin, masterAddr string) *workerProc {
	t.Helper()
	p := &workerProc{cmd: exec.Command(bin, "-master", masterAddr, "-cores", "2")}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting fractal-worker: %v", err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		if t.Failed() && p.out.Len() > 0 {
			t.Logf("fractal-worker pid %d output:\n%s", p.cmd.Process.Pid, p.out.String())
		}
	})
	return p
}

// procPair starts a master and two fractal-worker processes and waits for
// both to register; first is the first to start.
func procPair(t *testing.T, bin string) (master *fractal.Context, first *workerProc) {
	t.Helper()
	master = distMaster(t)
	first = spawnWorkerProc(t, bin, master.ListenAddr())
	spawnWorkerProc(t, bin, master.ListenAddr())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := master.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	return master, first
}

// TestDistProcesses runs one master and two fractal-worker OS processes and
// requires counts bit-identical to the in-process kernels.
func TestDistProcesses(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("dist-proc", 60, 220, 3, 51))
	procCountsMatch(t, path, path)
}

// procCountsMatch counts the cliques and motifs of the graph file run on a
// master with two fractal-worker processes: they must be the oracles'
// counts of the graph file at oraclePath.
func procCountsMatch(t *testing.T, oraclePath, run string) {
	oracle, load := inProcessOracle(t)
	wantCliques, _, err := cliquesOracle(load(oraclePath), 4)
	if err != nil {
		t.Fatal(err)
	}
	wantMotifs, _, err := motifsOracle(oracle, load(oraclePath), 3)
	if err != nil {
		t.Fatal(err)
	}
	master, _ := procPair(t, workerBin(t))
	got, res, err := Cliques(bg, master, loadOn(t, master, run), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCliques {
		t.Errorf("cross-process cliques over %s=%d, want %d", filepath.Base(run), got, wantCliques)
	}
	if res.Report.Workers != 2 {
		t.Errorf("report should record 2 worker processes, says %d", res.Report.Workers)
	}
	gotMotifs, _, err := Motifs(bg, master, loadOn(t, master, run), 3, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	motifCountsEqual(t, "cross-process motifs over "+filepath.Base(run), 3, gotMotifs, wantMotifs)
}

// TestDistProcessSIGKILL kills one of two worker processes mid-step with
// SIGKILL — no shutdown handshake, sockets torn down by the kernel — and
// requires the master to detect the loss, discard the attempt, and retry on
// the survivor for an exact count.
func TestDistProcessSIGKILL(t *testing.T) {
	bin := workerBin(t)
	path := writeGraphFile(t, workload.ErdosRenyi("dist-kill", 80, 400, 1, 52))
	_, load := inProcessOracle(t)
	want, _, err := cliquesOracle(load(path), 4)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy pass, doubling as the wall-clock measurement the kill timing
	// is derived from.
	master, _ := procPair(t, bin)
	healthy, res, err := Cliques(bg, master, loadOn(t, master, path), 4)
	if err != nil {
		t.Fatal(err)
	}
	if healthy != want {
		t.Fatalf("healthy cross-process cliques=%d, want %d", healthy, want)
	}

	// Killed pass: fresh master and workers, SIGKILL the first worker a
	// third of the healthy wall into the run.
	master2, victim := procPair(t, bin)
	delay := res.Wall / 3
	if delay < 5*time.Millisecond {
		delay = 5 * time.Millisecond
	}
	type out struct {
		n   int64
		res *fractal.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		n, r, err := Cliques(bg, master2, loadOn(t, master2, path), 4)
		done <- out{n, r, err}
	}()
	time.Sleep(delay)
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL worker: %v", err)
	}
	victim.cmd.Wait()
	r := <-done
	if r.err != nil {
		t.Fatalf("run with SIGKILLed worker: %v", r.err)
	}
	if r.n != want {
		t.Errorf("cliques with SIGKILLed worker=%d, want %d", r.n, want)
	}
	// Whether the kill landed mid-step depends on scheduling; when it did,
	// the report must account for it.
	t.Logf("kill after %v (healthy wall %v): lost=%d retries=%d",
		delay, res.Wall, r.res.Report.WorkersLost, r.res.Report.Retries)
}

// TestDistProcessesSharedFGR converts the graph to .fgr and runs the master
// plus two fractal-worker OS processes against it: every process memory-maps
// the same file (sharing one physical copy of the CSR arrays) and the counts
// must be bit-identical to the same run over the parsed edge-list file.
func TestDistProcessesSharedFGR(t *testing.T) {
	raw := workload.ErdosRenyi("dist-fgr", 60, 220, 3, 53)
	elPath := writeGraphFile(t, raw)
	fgrPath := filepath.Join(filepath.Dir(elPath), "dist-fgr.fgr")
	saveGraph(t, fgrPath, raw)
	procCountsMatch(t, elPath, fgrPath)
}
