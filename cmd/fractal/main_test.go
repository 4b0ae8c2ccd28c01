package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fractal"
)

// The command's flag surface, driven through the built binary: every app
// in-process, every -engine value, and every combination that must be
// refused — in particular what a -listen master cannot ship to workers,
// which has to fail up front (exit 1, a message naming the flag) and not
// sit waiting for registrations first.

// tinyGraph is K4 on {0,1,2,3} with vertex 4 pendant on 3: 4 triangles, one
// 4-clique, 3 open 3-paths. The keyword sidecar puts "a" and "b" on two
// adjacent edges.
const (
	tinyGraph = "v 0 0\nv 1 0\nv 2 0\nv 3 0\nv 4 0\n" +
		"e 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\ne 3 4\n"
	tinyKeywords = "e 0 a\ne 1 b\n"
)

func TestCLI(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	dir := t.TempDir()
	bin, workerBin := filepath.Join(dir, "fractal"), filepath.Join(dir, "fractal-worker")
	if out, err := exec.Command("go", "build", "-o", dir, ".", "../fractal-worker").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	graph := filepath.Join(dir, "tiny.el")
	for path, data := range map[string]string{graph: tinyGraph, graph + ".kw": tinyKeywords} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A master that gets past flag checking waits for a worker forever; the
	// rejected rows must never get there.
	listen := []string{"-listen", "127.0.0.1:0", "-min-workers", "1"}

	type row struct {
		name string
		args []string
		exit int
		want string // substring of stdout (exit 0) or stderr (otherwise)
		// -explain rows: the number of decomp: and plan: blocks printed.
		blocks []int
	}
	rows := []row{
		{"motifs", []string{"-app", "motifs", "-k", "3"}, 0, "3-vertex motifs [auto engine]: 2 classes, 7 subgraphs", nil},
		{"motifs plan", []string{"-app", "motifs", "-k", "3", "-engine", "plan"}, 0, "[plan engine]: 2 classes, 7 subgraphs", nil},
		{"cliques", []string{"-app", "cliques", "-k", "4"}, 0, "4-cliques: 1 (", nil},
		{"cliques plan", []string{"-app", "cliques", "-k", "3", "-engine", "plan"}, 0, "3-cliques: 4 (", nil},
		{"cliques kclist", []string{"-app", "cliques", "-k", "3", "-kclist"}, 0, "3-cliques: 4 (", nil},
		{"triangles", []string{"-app", "triangles", "-tcp", "-workers", "2"}, 0, "triangles: 4 (", nil},
		{"fsm", []string{"-app", "fsm", "-support", "1", "-maxedges", "2"}, 0, "frequent patterns (support >= 1): 2, per level [1 1]", nil},
		{"query", []string{"-app", "query", "-pattern", "triangle"}, 0, "matches of triangle [auto engine]: 4 (", nil},
		{"query plan", []string{"-app", "query", "-pattern", "square", "-engine", "plan"}, 0, "matches of square [plan engine]: 3 (", nil},
		{"query path3", []string{"-app", "query", "-pattern", "path3"}, 0, "matches of path3 [auto engine]: 15 (", nil},
		{"query square", []string{"-app", "query", "-pattern", "square"}, 0, "matches of square [auto engine]: 3 (", nil},
		{"query decomp square", []string{"-app", "query", "-pattern", "square", "-engine", "decomp"}, 1, `unknown -engine "decomp"`, nil},
		{"keywords", []string{"-app", "keywords", "-keywords", "a,b"}, 0, "covering subgraphs: 1 (", nil},
		{"keywords reduce", []string{"-app", "keywords", "-keywords", "a,b", "-reduce"}, 0, "covering subgraphs: 1 (", nil},
		{"explain", []string{"-explain", "-app", "cliques", "-k", "3"}, 0, "plan: 3 levels", nil},
		{"explain motifs 5", []string{"-explain", "-app", "motifs", "-k", "5"}, 0, "mixed fleet: 10 of 21 patterns decomposed", []int{10, 11}},
		// k=6 sweeps the 14 decomposable classes of 112 and enumerates the
		// other 98; k=1 and k=7 enumerate every pattern (the sweep does not
		// pay at 1, the induced conversion stops at 6), and -explain says so.
		{"explain motifs 6", []string{"-explain", "-app", "motifs", "-k", "6"}, 0, "mixed fleet: 14 of 112 patterns decomposed", []int{14, 98}},
		{"explain motifs 1", []string{"-explain", "-app", "motifs", "-k", "1"}, 0, "selection: enumeration fleet", []int{0, 1}},
		{"explain motifs 7", []string{"-explain", "-app", "motifs", "-k", "7"}, 0, "induced-conversion bound 6", []int{0, 853}},
		{"explain motifs 5 plan", []string{"-explain", "-app", "motifs", "-k", "5", "-engine", "plan"}, 0, "selection: plan engine", []int{0, 21}},
		{"explain query square", []string{"-explain", "-app", "query", "-pattern", "square"}, 0, "selection: decomposition", []int{1, 0}},
		{"explain query square plan", []string{"-explain", "-app", "query", "-pattern", "square", "-engine", "plan"}, 0, "selection: plan engine", []int{0, 1}},
		// -explain refuses what the run refuses, with the run's error.
		{"explain cliques 9", []string{"-explain", "-app", "cliques", "-k", "9"}, 1, `argument "k" must be in [1, 8], got 9`, nil},
		{"cliques 9", []string{"-app", "cliques", "-k", "9"}, 1, `argument "k" must be in [1, 8], got 9`, nil},
		{"explain motifs 9", []string{"-explain", "-app", "motifs", "-k", "9"}, 1, `argument "k" must be in [1, 8], got 9`, nil},
		{"motifs 9", []string{"-app", "motifs", "-k", "9"}, 1, `argument "k" must be in [1, 8], got 9`, nil},
		// -kclist runs no engine decision, so -explain refuses it whatever
		// k is; KClist itself takes any k >= 1.
		{"explain kclist", []string{"-explain", "-app", "cliques", "-k", "4", "-kclist"}, 1, "-kclist bypasses", nil},
		{"explain kclist 9", []string{"-explain", "-app", "cliques", "-k", "9", "-kclist"}, 1, "-kclist bypasses", nil},
		{"kclist 0", []string{"-app", "cliques", "-k", "0", "-kclist"}, 1, `apps: cliques argument "k" must be at least 1, got 0`, nil},
		{"kclist 9", []string{"-app", "cliques", "-k", "9", "-kclist"}, 0, "9-cliques: 0 (", nil},
		{"pprof", []string{"-app", "triangles", "-pprof", filepath.Join(dir, "prof")}, 0, "triangles: 4 (", nil},
		{"motifs sweep report", []string{"-app", "motifs", "-k", "3", "-metrics-out", filepath.Join(dir, "motifs.json")}, 0, "3-vertex motifs [auto engine]: 2 classes, 7 subgraphs", nil},
		{"query sweep report", []string{"-app", "query", "-pattern", "star4", "-metrics-out", filepath.Join(dir, "star4.json")}, 0, "matches of star4 [auto engine]: 7 (", nil},

		{"no app", nil, 2, "Usage", nil},
		{"unknown app", []string{"-app", "nope"}, 1, `unknown -app "nope"`, nil},
		{"unknown engine", []string{"-app", "motifs", "-engine", "nope"}, 1, `unknown -engine "nope"`, nil},
		{"unknown ws", []string{"-app", "motifs", "-ws", "nope"}, 1, `unknown -ws mode "nope"`, nil},
		{"unknown pattern", []string{"-app", "query", "-pattern", "nope"}, 1, `unknown pattern "nope"`, nil},
		{"pprof missing directory", []string{"-app", "triangles", "-pprof", filepath.Join(dir, "missing", "prof")}, 1, "-pprof: open ", nil},
		{"min-workers without listen", []string{"-app", "motifs", "-min-workers", "1"}, 1, "-min-workers requires -listen", nil},
		{"fsm reduce", []string{"-app", "fsm", "-support", "1", "-reduce"}, 1, "-reduce applies to -app keywords only", nil},
		{"fsm plan", []string{"-app", "fsm", "-engine", "plan"}, 1, "-engine plan does not apply to -app fsm", nil},
		{"fsm negative maxedges", []string{"-app", "fsm", "-support", "1", "-maxedges", "-4"}, 1, "-maxedges must be in [1, 31], got -4", nil},
		{"fsm maxedges past a pattern", []string{"-app", "fsm", "-support", "1", "-maxedges", "32"}, 1, "-maxedges must be in [1, 31], got 32", nil},
		{"query decomp no rule", []string{"-app", "query", "-pattern", "clique4", "-engine", "decomp"}, 1, `unknown -engine "decomp"`, nil},

		{"listen motifs", append([]string{"-app", "motifs"}, listen...), 0, "[auto engine]: 2 classes, 7 subgraphs", nil},
		{"listen decomp", append([]string{"-app", "motifs", "-engine", "decomp"}, listen...), 1, `unknown -engine "decomp"`, nil},
		{"listen canon", append([]string{"-app", "motifs", "-engine", "canon"}, listen...), 1, `unknown -engine "canon"`, nil},
		{"listen kclist", append([]string{"-app", "cliques", "-kclist"}, listen...), 1, "-kclist runs in-process only", nil},
		{"listen reduce", append([]string{"-app", "fsm", "-reduce"}, listen...), 1, "-reduce applies to -app keywords only", nil},
		{"listen query", append([]string{"-app", "query"}, listen...), 0, "matches of triangle [auto engine]: 4 (", nil},
		{"listen keywords", append([]string{"-app", "keywords", "-keywords", "a"}, listen...), 1, "-app keywords has no distributed form", nil},
	}
	// -engine accepts auto and plan only: the canonical-check path and the
	// forced sweep are gone from every app.
	for _, app := range []string{"motifs", "cliques", "triangles", "fsm", "query", "keywords"} {
		for _, engine := range []string{"canon", "decomp"} {
			rows = append(rows, row{app + " " + engine, []string{"-app", app, "-engine", engine}, 1, `unknown -engine "` + engine + `"`, nil})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-graph", graph, "-cores", "2"}, r.args...)...)
			addr := make(chan string, 1)
			stdout := &addrWriter{addr: addr}
			var stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = stdout, &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			fail := func(format string, args ...any) {
				cmd.Process.Kill()
				<-done
				t.Fatalf(format+"\nstdout: %s\nstderr: %s", append(args, stdout, &stderr)...)
			}
			timeout := time.After(30 * time.Second)
			// A master that is to run gets one worker; it prints its address
			// before it waits for registrations.
			if slices.Contains(r.args, "-listen") && r.exit == 0 {
				select {
				case addr := <-addr:
					w := exec.Command(workerBin, "-master", addr, "-cores", "1")
					if err := w.Start(); err != nil {
						fail("starting fractal-worker: %v", err)
					}
					t.Cleanup(func() { w.Process.Kill(); w.Wait() })
				case <-timeout:
					fail("no listening address after 30s")
				}
			}
			var err error
			select {
			case err = <-done:
			case <-timeout:
				fail("still running after 30s")
			}
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			out := &stdout.buf
			if r.exit != 0 {
				out = &stderr
			}
			if exit != r.exit || !strings.Contains(out.String(), r.want) {
				t.Errorf("exit %d, want %d with %q\nstdout: %s\nstderr: %s", exit, r.exit, r.want, stdout, &stderr)
			}
			if r.blocks != nil {
				decomps := len(regexp.MustCompile(`(?m)^decomp: `).FindAllString(stdout.String(), -1))
				plans := len(regexp.MustCompile(`(?m)^plan: `).FindAllString(stdout.String(), -1))
				if decomps != r.blocks[0] || plans != r.blocks[1] {
					t.Errorf("%d decomp: and %d plan: blocks, want %d and %d", decomps, plans, r.blocks[0], r.blocks[1])
				}
			}
			// Every row writing a report here runs the decomposition sweep.
			if i := slices.Index(r.args, "-metrics-out"); i >= 0 {
				checkSweepReport(t, r.args[i+1], stdout.String())
			}
		})
	}
	// The "pprof" row left both profiles behind, written through runtime/pprof.
	for _, name := range []string{"prof.cpu.pprof", "prof.heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("-pprof %s: %v, want a non-empty file", name, err)
		}
	}
}

// addrWriter is a row's stdout: it keeps everything and hands over, once,
// the address a -listen master prints. (Embedding the buffer would promote
// its ReadFrom, which exec's copy prefers to Write.)
type addrWriter struct {
	buf  bytes.Buffer
	addr chan string
}

func (w *addrWriter) String() string { return w.buf.String() }

func (w *addrWriter) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	if w.addr != nil {
		if _, rest, ok := strings.Cut(w.buf.String(), "master listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				w.addr <- addr
				w.addr = nil
			}
		}
	}
	return n, err
}

// checkSweepReport reads a -metrics-out report and checks that it holds the
// decomposition sweep's step and that its steps' EC adds up to the EC= the
// run printed: the sweep's kernel work is in the report, not beside it.
func checkSweepReport(t *testing.T, path, stdout string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := fractal.ReadRunReport(f)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`EC=(\d+)`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no EC= in the output:\n%s", stdout)
	}
	printed, _ := strconv.ParseInt(m[1], 10, 64)
	var sum int64
	sweep := false
	for _, s := range rep.Steps {
		sum += s.EC
		sweep = sweep || s.Workflow == "EA" && s.EC > 0
	}
	if !sweep || sum != printed {
		t.Errorf("%s: sweep step %v, steps' EC %d, printed EC=%d", path, sweep, sum, printed)
	}
}
