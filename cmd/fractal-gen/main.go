// Command fractal-gen writes the synthetic benchmark datasets (the Table 1
// analogs) to disk in the labeled edge-list format, with keyword sidecars
// where applicable, so they can be fed back through the fractal CLI or any
// other consumer of the formats.
//
// Usage:
//
//	fractal-gen -out <dir> [-dataset <name>]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"fractal/internal/graph"
	"fractal/internal/workload"
)

func main() {
	var (
		out  = flag.String("out", ".", "output directory")
		name = flag.String("dataset", "", "dataset to generate (default: all)")
		list = flag.Bool("list", false, "list dataset names and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fractal-gen: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	datasets := workload.Datasets()
	if *list {
		for _, d := range datasets {
			fmt.Printf("%-12s %s\n", d.Name, d.Description)
		}
		return
	}
	if *name != "" {
		datasets = slices.DeleteFunc(datasets, func(d *workload.Dataset) bool { return d.Name != *name })
		if len(datasets) == 0 {
			fatal(fmt.Errorf("unknown dataset %q (-list names them)", *name))
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, d := range datasets {
		g := d.Graph()
		path := filepath.Join(*out, d.Name+".el")
		if err := writeFile(path, g, graph.WriteEdgeList); err != nil {
			fatal(err)
		}
		if g.HasKeywords() {
			if err := writeFile(path+".kw", g, graph.WriteKeywords); err != nil {
				fatal(err)
			}
		}
		s := g.Stats()
		fmt.Printf("wrote %s (|V|=%d |E|=%d |L|=%d)\n", path, s.V, s.E, s.L)
	}
}

// writeFile writes g to path with one of the text writers.
func writeFile(path string, g *graph.Graph, write func(io.Writer, *graph.Graph) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fractal-gen:", err)
	os.Exit(1)
}
