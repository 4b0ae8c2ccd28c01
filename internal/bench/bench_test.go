package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fractal"
	"fractal/internal/apps"
)

// All experiments must run cleanly in Quick mode and produce output rows.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Options{Out: &buf, Quick: true}); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if strings.Count(buf.String(), "\n") < 2 {
				t.Errorf("%s produced too little output:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if err := RunExperiment("nope", Options{Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentByID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", Options{Out: &buf, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mico") {
		t.Error("table1 output missing datasets")
	}
}

func TestHelpers(t *testing.T) {
	if bytesHuman(512) != "512B" || bytesHuman(2048) != "2.00KB" ||
		bytesHuman(3<<20) != "3.00MB" || bytesHuman(5<<30) != "5.00GB" {
		t.Error("bytesHuman wrong")
	}
	for _, c := range []struct{ a, b time.Duration }{{0, 0}, {time.Millisecond, 0}, {0, time.Millisecond}} {
		if got := ratio(c.a, c.b); got != "-" {
			t.Errorf("ratio(%v, %v) = %q, want -", c.a, c.b, got)
		}
	}
	if got := ratio(time.Millisecond, 3*time.Millisecond); got != "3.00×" {
		t.Errorf("ratio(1ms, 3ms) = %q, want 3.00×", got)
	}
	if got := sortedKeys(map[string]int{"b": 1, "a": 2}); got[0] != "a" || got[1] != "b" {
		t.Errorf("sortedKeys=%v", got)
	}
	if (Options{}).out() == nil {
		t.Error("nil Out must fall back to a writer")
	}
}

// TestAnalyzeRunReportRoundTrip: a traced job's report, written as
// `fractal -metrics-out` writes it and read back as `fractal-bench -report`
// reads it, prints the run line, a header, one row per step, the trace
// line and the transport line.
func TestAnalyzeRunReportRoundTrip(t *testing.T) {
	g, err := Options{Quick: true}.dataset("patents-sl")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := newCtx(1, 2, fractal.Config{WS: fractal.WSBoth, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	_, res, err := apps.Cliques(bg, ctx, ctx.FromGraph(g), 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadRunReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) == 0 || len(rep.Trace) == 0 {
		t.Fatalf("report has %d steps and %d trace events, want both", len(rep.Steps), len(rep.Trace))
	}
	var buf bytes.Buffer
	if err := AnalyzeRunReport(rep, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := 2 + len(rep.Steps) + 2; len(lines) != want {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), want, buf.String())
	}
	if !strings.HasPrefix(lines[0], "run: ") || !strings.HasPrefix(lines[1], "step ") {
		t.Errorf("run line or header missing:\n%s", buf.String())
	}
	for i, s := range rep.Steps {
		if row := lines[2+i]; !strings.HasPrefix(row, fmt.Sprintf("%d ", s.Index)) {
			t.Errorf("row %d = %q, want step %d", i, row, s.Index)
		}
	}
	if n := len(lines); !strings.HasPrefix(lines[n-2], "trace: ") || !strings.HasPrefix(lines[n-1], "transport: ") {
		t.Errorf("trace and transport lines missing:\n%s", buf.String())
	}
}
