package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// A side of a comparison is one result file or a comma-separated set of
// them: repeated runs of one commit with one seed. Its value for a metric is
// the median over the runs. Its spread is the interquartile distance of the
// run values as a share of their median; a single run only has its per-job
// samples to take that from, which overstates it.
type side struct {
	runs []result
}

func loadSide(arg string) (side, error) {
	var s side
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case r.Schema != resultSchema:
			return s, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
		case r.Quick:
			return s, fmt.Errorf("%s: a -quick result is a smoke test, not a measurement", path)
		case len(s.runs) > 0 && r.Seed != s.runs[0].Seed:
			return s, fmt.Errorf("%s: seed %d among runs of seed %d", path, r.Seed, s.runs[0].Seed)
		}
		s.runs = append(s.runs, r)
	}
	return s, nil
}

func (s side) workload(run int, name string) *workloadResult {
	for i := range s.runs[run].Workloads {
		if w := &s.runs[run].Workloads[i]; w.Name == name {
			return w
		}
	}
	return nil
}

// endToEndOf returns the side's value and spread for one end-to-end metric
// of one workload; ok is false if no run has it.
func (s side) endToEndOf(workload, name string) (value, spr float64, ok bool) {
	var vals, samples []float64
	for i := range s.runs {
		w := s.workload(i, workload)
		if w == nil {
			continue
		}
		if m, found := w.EndToEnd[name]; found && m.Value != nil {
			vals = append(vals, *m.Value)
			samples = m.Samples
		}
	}
	switch len(vals) {
	case 0:
		return 0, 0, false
	case 1:
		return vals[0], spread(samples), true
	}
	return median(vals), spread(vals), true
}

// verdict applies one metric's bound to the two sides.
func verdict(d metricDef, a, b, spreadA, spreadB float64) string {
	worse := (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "regressed"
	case max(spreadA, spreadB) > d.Bound:
		return "unresolved"
	}
	return "ok"
}

// exactOf returns what must repeat exactly for one seed: digests, the graph
// file hash and the deterministic counts of the first run that has them.
func (s side) exactOf(workload string) map[string]string {
	out := map[string]string{}
	for i := range s.runs {
		w := s.workload(i, workload)
		if w == nil {
			continue
		}
		out["graph_sha256"] = w.GraphSHA256
		for k, d := range w.Digests {
			out["digest."+k] = d
		}
		for _, name := range exactCounts {
			if m, ok := w.PerLayer[name]; ok && m.Value != nil {
				out[name] = fmt.Sprintf("%.0f", *m.Value)
			}
		}
		if w.PerLayer != nil {
			break
		}
	}
	return out
}

// compareFiles prints one line per (metric, workload) and returns the exit
// code: 0 when every line is ok, 1 otherwise, 2 when the files cannot be
// compared.
func compareFiles(out io.Writer, aArg, bArg string) int {
	var sides [2]side
	for i, arg := range []string{aArg, bArg} {
		s, err := loadSide(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
			return 2
		}
		sides[i] = s
	}
	return compareSides(out, sides[0], sides[1])
}

func compareSides(out io.Writer, a, b side) int {
	sameSeed := a.runs[0].Seed == b.runs[0].Seed
	fmt.Fprintf(out, "a: %d run(s) of seed %d; b: %d run(s) of seed %d\n", len(a.runs), a.runs[0].Seed, len(b.runs), b.runs[0].Seed)
	code := 0
	for _, w := range workloads(fullSizes) {
		for _, d := range endToEnd {
			av, as, aok := a.endToEndOf(w.name, d.Name)
			bv, bs, bok := b.endToEndOf(w.name, d.Name)
			if !aok || !bok {
				continue
			}
			v := verdict(d, av, bv, as, bs)
			if v != "ok" {
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-12s a=%-10.5g b=%-10.5g change=%+6.1f%% spread a=%.1f%% b=%.1f%% bound=%.0f%%  %s\n",
				w.name, d.Name, av, bv, 100*(bv-av)/av, 100*as, 100*bs, 100*d.Bound, v)
		}
		if !sameSeed {
			continue
		}
		ea, eb := a.exactOf(w.name), b.exactOf(w.name)
		for name, va := range ea {
			if vb, ok := eb[name]; ok && va != vb {
				code = 1
				fmt.Fprintf(out, "%-14s %-12s a=%s b=%s  MISMATCH (must be identical for one seed)\n", w.name, name, va, vb)
			}
		}
	}
	if !sameSeed {
		fmt.Fprintln(out, "seeds differ: digests and exact counts not compared")
	}
	return code
}
