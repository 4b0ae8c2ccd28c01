package bench

import (
	"errors"
	"fmt"
	"time"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/baselines/bfsengine"
	"fractal/internal/baselines/mapreduce"
	"fractal/internal/baselines/scalemine"
	"fractal/internal/baselines/seed"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

// comparisonCores is the logical parallelism used for system-vs-system wall
// comparisons: both sides get the same number of logical cores.
const comparisonCores = 4

// memBudget is the baseline memory budget for "OOM"-style failures.
func (o Options) memBudget() int64 {
	if o.Quick {
		return 8 << 20
	}
	return 1 << 30
}

// Table1 prints the dataset statistics (Table 1 of the paper).
func Table1(o Options) error {
	tw := table(o.out())
	fmt.Fprintln(tw, "Graph\t|V(G)|\t|E(G)|\t|L(G)|\tDensity\tKeywords\tstands for")
	for _, d := range workload.Datasets() {
		g, err := o.dataset(d.Name)
		if err != nil {
			return err
		}
		s := g.Stats()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1e\t%d\t%s\n",
			d.Name, s.V, s.E, s.L, s.Density, s.Keywords, d.PaperName)
	}
	return tw.Flush()
}

// Fig11 compares motif counting runtimes: Fractal vs the Arabesque-style
// BFS engine vs the MRSUB-style MapReduce counter.
func Fig11(o Options) error {
	ctx, err := newCtx(1, comparisonCores, fractal.Config{WS: fractal.WSBoth})
	if err != nil {
		return err
	}
	defer ctx.Close()
	type cfg struct {
		dataset string
		k       int
	}
	// The paper sweeps k=3..5; the analog keeps k=4 on the denser Mico and
	// k=3 on the larger Youtube so the slowest cell (BFS k=4 on Youtube,
	// ~20M materialized embeddings) does not dominate the whole suite.
	cases := []cfg{{"mico-sl", 3}, {"mico-sl", 4}, {"youtube-sl", 3}}
	if o.Quick {
		cases = []cfg{{"mico-sl", 3}, {"youtube-sl", 3}}
	}
	tw := table(o.out())
	fmt.Fprintln(tw, "dataset\tk\tfractal\tarabesque(bfs)\tmrsub(mr)\tvsArab\tvsMR")
	for _, c := range cases {
		g, err := o.dataset(c.dataset)
		if err != nil {
			return err
		}
		fg := ctx.FromGraph(g)
		t0 := time.Now()
		if _, _, err := apps.Motifs(bg, ctx, fg, c.k, apps.EngineAuto); err != nil {
			return err
		}
		frac := time.Since(t0)

		_, bfsRes, bErr := bfsengine.Motifs(g, c.k, comparisonCores, o.memBudget())
		bfs := time.Duration(0)
		bfsCell := "OOM"
		if bErr == nil {
			bfs = bfsRes.Wall
			bfsCell = ms(bfs)
		} else if !errors.Is(bErr, bfsengine.ErrOutOfMemory) {
			return bErr
		}

		_, mrRes, mErr := mapreduce.Motifs(g, c.k, o.memBudget())
		mr := time.Duration(0)
		mrCell := "OOM"
		if mErr == nil {
			mr = mrRes.Wall
			mrCell = ms(mr)
		} else if !errors.Is(mErr, mapreduce.ErrOutOfMemory) {
			return mErr
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			c.dataset, c.k, ms(frac), bfsCell, mrCell, ratio(frac, bfs), ratio(frac, mr))
	}
	return tw.Flush()
}

// Fig12 compares clique counting runtimes: Fractal vs Arabesque(BFS) vs
// QKCount(MR) vs GraphFrames(MR with a tight memory budget).
func Fig12(o Options) error {
	ctx, err := newCtx(1, comparisonCores, fractal.Config{WS: fractal.WSBoth})
	if err != nil {
		return err
	}
	defer ctx.Close()
	type cfg struct {
		dataset string
		ks      []int
	}
	cases := []cfg{{"mico-sl", []int{3, 4, 5, 6}}, {"youtube-sl", []int{3, 4, 5}}}
	if o.Quick {
		cases = []cfg{{"mico-sl", []int{3, 4}}, {"youtube-sl", []int{3}}}
	}
	gfBudget := o.memBudget() / 16 // GraphFrames's joins blow up first
	tw := table(o.out())
	fmt.Fprintln(tw, "dataset\tk\tfractal\tarabesque\tqkcount\tgraphframes\tvsArab")
	for _, c := range cases {
		g, err := o.dataset(c.dataset)
		if err != nil {
			return err
		}
		fg := ctx.FromGraph(g)
		for _, k := range c.ks {
			t0 := time.Now()
			if _, _, err := apps.Cliques(bg, ctx, fg, k); err != nil {
				return err
			}
			frac := time.Since(t0)

			arab := "OOM"
			var arabD time.Duration
			if r, err := bfsengine.Cliques(g, k, comparisonCores, o.memBudget()); err == nil {
				arabD = r.Wall
				arab = ms(r.Wall)
			} else if !errors.Is(err, bfsengine.ErrOutOfMemory) {
				return err
			}
			qk := "OOM"
			if r, err := mapreduce.Cliques(g, k, o.memBudget()); err == nil {
				qk = ms(r.Wall)
			} else if !errors.Is(err, mapreduce.ErrOutOfMemory) {
				return err
			}
			gf := "OOM"
			if r, err := mapreduce.Cliques(g, k, gfBudget); err == nil {
				gf = ms(r.Wall)
			} else if !errors.Is(err, mapreduce.ErrOutOfMemory) {
				return err
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
				c.dataset, k, ms(frac), arab, qk, gf, ratio(frac, arabD))
		}
	}
	return tw.Flush()
}

// fsmSupports returns the support sweep per dataset, scaled to the analog
// sizes (the paper sweeps 20k-24k on Patents and 255k+ on Youtube).
func (o Options) fsmSupports(dataset string) []int64 {
	if o.Quick {
		return []int64{15, 20, 30}
	}
	switch dataset {
	case "mico-ml":
		return []int64{60, 90, 120}
	default: // patents-ml
		return []int64{45, 60, 90}
	}
}

// Fig13 compares FSM runtimes across supports: Fractal vs Arabesque(BFS) vs
// ScaleMine (two-phase).
func Fig13(o Options) error {
	ctx, err := newCtx(1, comparisonCores, fractal.Config{WS: fractal.WSBoth})
	if err != nil {
		return err
	}
	defer ctx.Close()
	datasets := []string{"mico-ml", "patents-ml"}
	const maxEdges = 3
	tw := table(o.out())
	fmt.Fprintln(tw, "dataset\tsupport\tfrequent\tfractal\tarabesque\tscalemine(p1+p2)\tvsArab\tvsSM")
	for _, ds := range datasets {
		g, err := o.dataset(ds)
		if err != nil {
			return err
		}
		fg := ctx.FromGraph(g)
		for _, supp := range o.fsmSupports(ds) {
			t0 := time.Now()
			fres, err := apps.FSM(bg, ctx, fg, supp, apps.FSMOptions{MaxEdges: maxEdges})
			if err != nil {
				return err
			}
			frac := time.Since(t0)

			arab := "OOM"
			var arabD time.Duration
			at0 := time.Now()
			if _, err := bfsengine.FSM(g, supp, maxEdges, comparisonCores, o.memBudget()); err == nil {
				arabD = time.Since(at0)
				arab = ms(arabD)
			} else if !errors.Is(err, bfsengine.ErrOutOfMemory) {
				return err
			}

			smt0 := time.Now()
			sm := scalemine.Mine(g, supp, scalemine.Options{MaxEdges: maxEdges, Seed: 7})
			smD := time.Since(smt0)

			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s(%s+%s)\t%s\t%s\n",
				ds, supp, len(fres.Frequent), ms(frac), arab,
				ms(smD), ms(sm.Phase1), ms(sm.Phase2),
				ratio(frac, arabD), ratio(frac, smD))
		}
	}
	return tw.Flush()
}

// Fig15 compares subgraph querying runtimes on the q1-q8 suite: Fractal vs
// SEED (join plans) vs Arabesque (BFS pattern matching).
func Fig15(o Options) error {
	ctx, err := newCtx(1, comparisonCores, fractal.Config{WS: fractal.WSBoth})
	if err != nil {
		return err
	}
	defer ctx.Close()
	datasets := []string{"patents-sl", "youtube-sl"}
	queries := pattern.SEEDQueries()
	qn := len(queries)
	if o.Quick {
		qn = 4
	}
	tw := table(o.out())
	fmt.Fprintln(tw, "dataset\tquery\tmatches\tfractal\tseed\tarabesque\tvsSEED")
	for _, ds := range datasets {
		g, err := o.dataset(ds)
		if err != nil {
			return err
		}
		fg := ctx.FromGraph(g)
		for qi, q := range queries[:qn] {
			t0 := time.Now()
			n, _, err := apps.Query(bg, ctx, fg, q, apps.EngineAuto)
			if err != nil {
				return err
			}
			frac := time.Since(t0)

			seedCell := "fail"
			var seedD time.Duration
			if r, err := seed.Query(g, q, int64(32*g.NumEdges())); err == nil {
				seedD = r.Wall
				seedCell = ms(r.Wall)
			}
			arab := "OOM"
			if r, err := bfsengine.Query(g, q, comparisonCores, o.memBudget()/8); err == nil {
				arab = ms(r.Wall)
			} else if !errors.Is(err, bfsengine.ErrOutOfMemory) {
				return err
			}
			fmt.Fprintf(tw, "%s\tq%d\t%d\t%s\t%s\t%s\t%s\n",
				ds, qi+1, n, ms(frac), seedCell, arab, ratio(frac, seedD))
		}
	}
	return tw.Flush()
}

// Fig20a compares triangle counting across datasets: Fractal vs
// Arabesque(BFS) vs GraphFrames/GraphX (wedge joins with budget).
func Fig20a(o Options) error {
	ctx, err := newCtx(1, comparisonCores, fractal.Config{WS: fractal.WSBoth})
	if err != nil {
		return err
	}
	defer ctx.Close()
	datasets := []string{"mico-sl", "patents-sl", "youtube-sl", "orkut"}
	if o.Quick {
		datasets = datasets[:2]
	}
	tw := table(o.out())
	fmt.Fprintln(tw, "dataset\ttriangles\tfractal\tarabesque\tgraphframes\tgraphx\tvsArab")
	for _, ds := range datasets {
		g, err := o.dataset(ds)
		if err != nil {
			return err
		}
		fg := ctx.FromGraph(g)
		t0 := time.Now()
		n, _, err := apps.Triangles(bg, ctx, fg)
		if err != nil {
			return err
		}
		frac := time.Since(t0)

		arab := "OOM"
		var arabD time.Duration
		if r, err := bfsengine.Triangles(g, comparisonCores, o.memBudget()); err == nil {
			arabD = r.Wall
			arab = ms(r.Wall)
		} else if !errors.Is(err, bfsengine.ErrOutOfMemory) {
			return err
		}
		gf := "OOM"
		if r, err := mapreduce.Triangles(g, o.memBudget()/8); err == nil {
			gf = ms(r.Wall)
		} else if !errors.Is(err, mapreduce.ErrOutOfMemory) {
			return err
		}
		gx := "OOM"
		if r, err := mapreduce.Triangles(g, o.memBudget()); err == nil {
			gx = ms(r.Wall)
		} else if !errors.Is(err, mapreduce.ErrOutOfMemory) {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			ds, n, ms(frac), arab, gf, gx, ratio(frac, arabD))
	}
	return tw.Flush()
}
