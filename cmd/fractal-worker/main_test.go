package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The command's flag surface, driven through the built binary: what it
// refuses, and how wide it makes its own Go runtime.
func TestCLI(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "fractal-worker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, r := range []struct {
		name string
		args []string
		exit int
		want string // substring of stderr
	}{
		{"no master", nil, 2, "Usage"},
		{"negative cores", []string{"-master", "127.0.0.1:1", "-cores", "-1"}, 2, "-cores must not be negative, got -1"},
		{"master unreachable", []string{"-master", "127.0.0.1:1"}, 1, "fractal-worker:"},
	} {
		t.Run(r.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, r.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != r.exit || !strings.Contains(stderr.String(), r.want) {
				t.Errorf("%v, want exit %d with %q\nstderr: %s", err, r.exit, r.want, &stderr)
			}
		})
	}

	// A master that accepts and never answers keeps the worker waiting for
	// its welcome; the runtime's scheduler trace says how many Ps it runs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	for _, r := range []struct {
		name, cores, env, want string
	}{
		{"cores size the runtime", "3", "", "gomaxprocs=3 "},
		{"the environment wins", "3", "GOMAXPROCS=5", "gomaxprocs=5 "},
	} {
		t.Run(r.name, func(t *testing.T) {
			cmd := exec.Command(bin, "-master", ln.Addr().String(), "-cores", r.cores)
			cmd.Env = append(os.Environ(), "GODEBUG=schedtrace=10")
			if r.env != "" {
				cmd.Env = append(cmd.Env, r.env)
			}
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cmd.Process.Kill()
				cmd.Wait()
			}()
			// The trace's first lines predate main; the width settles after.
			found := make(chan bool, 1)
			go func() {
				sc := bufio.NewScanner(stderr)
				for sc.Scan() {
					if strings.Contains(sc.Text(), r.want) {
						found <- true
						return
					}
				}
				found <- false
			}()
			select {
			case ok := <-found:
				if !ok {
					t.Errorf("the worker exited without a scheduler trace line holding %q", r.want)
				}
			case <-time.After(20 * time.Second):
				t.Errorf("no scheduler trace line holding %q within 20s", r.want)
			}
		})
	}
}
