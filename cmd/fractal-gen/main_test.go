package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fractal/internal/graph"
)

// The command's flag surface, driven through the built binary as
// cmd/fractal's table does: whatever the flags say, the command ends with an
// exit code and a message, and what it writes loads back as one graph
// whichever format carries it. The command has no size flags — datasets are
// fixed recipes — so "hostile" is an unknown name, an unknown flag, a stray
// argument or an output directory that cannot be made.
func TestCLI(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fractal-gen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	file := filepath.Join(dir, "a-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "data")

	rows := []struct {
		name string
		args []string
		exit int
		want string // substring of stdout (exit 0) or stderr (otherwise)
	}{
		{"list", []string{"-list"}, 0, "mico-sl "},
		{"one dataset", []string{"-dataset", "mico-sl", "-out", data}, 0, "mico-sl.el (|V|=3000 "},
		{"with keywords", []string{"-dataset", "wikidata", "-out", data}, 0, "wikidata.el (|V|="},

		{"unknown dataset", []string{"-dataset", "nope", "-out", data}, 1, `unknown dataset "nope"`},
		{"dataset name is a path", []string{"-dataset", "../mico-sl", "-out", data}, 1, "unknown dataset"},
		{"out is a file", []string{"-dataset", "mico-sl", "-out", file}, 1, "a-file"},
		{"out under a file", []string{"-dataset", "mico-sl", "-out", filepath.Join(file, "sub")}, 1, "a-file"},
		{"unknown flag", []string{"-size", "-5"}, 2, "flag provided but not defined"},
		{"flag without value", []string{"-dataset"}, 2, "flag needs an argument"},
		{"bad bool", []string{"-list=maybe"}, 2, "invalid boolean value"},
		{"stray argument", []string{"mico-sl"}, 2, `unexpected argument "mico-sl"`},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, r.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			exit := 0
			var ee *exec.ExitError
			if err := cmd.Run(); errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			out := &stdout
			if r.exit != 0 {
				out = &stderr
			}
			if exit != r.exit || !strings.Contains(out.String(), r.want) || strings.Contains(stderr.String(), "goroutine ") {
				t.Errorf("exit %d, want %d with %q and no panic\nstdout: %s\nstderr: %s", exit, r.exit, r.want, &stdout, &stderr)
			}
		})
	}
	if entries, _ := os.ReadDir(data); len(entries) != 3 {
		t.Errorf("refused runs wrote into -out: %v, want mico-sl.el, wikidata.el and its .kw", entries)
	}

	// What was written is one graph in every format that can carry it: the
	// text files, the .fgr converted from them, and the text written from
	// that again encode to the same bytes.
	for _, name := range []string{"mico-sl", "wikidata"} {
		g, err := graph.LoadFile(filepath.Join(data, name+".el"))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.EncodeFGR(g)
		fgr := filepath.Join(dir, name+".fgr")
		if err := graph.SaveFGR(fgr, g); err != nil {
			t.Fatal(err)
		}
		mapped, err := graph.LoadFile(fgr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(graph.EncodeFGR(mapped), want) {
			t.Errorf("%s: the .fgr does not load back to the bytes it was written from", name)
		}
		var el, kw bytes.Buffer
		if err := errors.Join(graph.WriteEdgeList(&el, mapped), graph.WriteKeywords(&kw, mapped), mapped.Close()); err != nil {
			t.Fatal(err)
		}
		again := filepath.Join(dir, name+".el")
		if err := errors.Join(os.WriteFile(again, el.Bytes(), 0o644), os.WriteFile(again+".kw", kw.Bytes(), 0o644)); err != nil {
			t.Fatal(err)
		}
		reloaded, err := graph.LoadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(graph.EncodeFGR(reloaded), want) {
			t.Errorf("%s: .el -> .fgr -> .el does not load back to the same bytes", name)
		}
		if name == "wikidata" && !reloaded.HasKeywords() {
			t.Errorf("%s: keywords lost on the way", name)
		}
	}
}
