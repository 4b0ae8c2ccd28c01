package bench

import (
	"fmt"
	"slices"
	"time"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/baselines/singlethread"
)

// COST methodology (McSherry et al., HotOS'15): the COST of a system is the
// number of cores it needs to outperform an efficient single-threaded
// implementation. On hosts without enough hardware threads, true parallel
// wall clock is not measurable, so we project it: with t logical cores the
// runtime distributes W total work units with makespan M(t); since all
// logical cores share the host, the measured wall T(t) approximates the
// serialized total, and the projected parallel time is
//
//	T_proj(t) = T(t) × M(t)/W(t)
//
// i.e. the critical core's share of the work. This is exact under uniform
// per-unit cost and is reported alongside the raw inputs.
func projected(wall time.Duration, makespan, total int64) time.Duration {
	if total == 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(makespan) / float64(total))
}

// lastBalance sums the makespan and the total work of every executed step:
// the job's balance, with the steps run one after the other.
func lastBalance(steps []fractal.StepReport) (makespan, total int64) {
	for _, s := range steps {
		if s.Skipped {
			continue
		}
		makespan += s.Balance.Makespan
		total += s.Balance.Total
	}
	return makespan, total
}

// costKernel measures one kernel's COST.
type costKernel struct {
	name     string
	baseline func() (time.Duration, error)
	fractal  func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error)
}

// costRuns is how many timed runs make a COST cell, after one warm-up: a
// cell is their median, so one slow run of a job of a few milliseconds
// cannot move the COST.
const costRuns = 5

// median runs f once to warm up and costRuns times more, and returns the
// median of what the timed runs return.
func median(f func() (time.Duration, error)) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i <= costRuns; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i > 0 {
			ds = append(ds, d)
		}
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

func runCOST(o Options, kernels []costKernel, maxCores int) error {
	tw := table(o.out())
	fmt.Fprintln(tw, "kernel\tbaseline\tfractal t=1 (proj)\tprojected by cores\tCOST")
	for _, k := range kernels {
		base, err := median(k.baseline)
		if err != nil {
			return err
		}
		cost := -1
		var projs []string
		for t := 1; t <= maxCores; t *= 2 {
			ctx, err := newCtx(1, t, fractal.Config{WS: fractal.WSBoth})
			if err != nil {
				return err
			}
			proj, err := median(func() (time.Duration, error) {
				steps, wall, err := k.fractal(ctx)
				mk, total := lastBalance(steps)
				return projected(wall, mk, total), err
			})
			ctx.Close()
			if err != nil {
				return err
			}
			projs = append(projs, fmt.Sprintf("t%d:%s", t, ms(proj)))
			if cost < 0 && proj < base {
				cost = t
			}
		}
		costCell := fmt.Sprintf("%d", cost)
		if cost < 0 {
			costCell = fmt.Sprintf(">%d", maxCores)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%s\n", k.name, ms(base), projs[0], projs[1:], costCell)
	}
	return tw.Flush()
}

// Fig18 runs the COST analysis for motifs, cliques, FSM, and querying
// against the Gtries/Grami-style single-thread baselines.
func Fig18(o Options) error {
	micoSL, err := o.dataset("mico-sl")
	if err != nil {
		return err
	}
	patentsSL, err := o.dataset("patents-sl")
	if err != nil {
		return err
	}
	patentsML, err := o.dataset("patents-ml")
	if err != nil {
		return err
	}
	motifK := 4
	cliqueK := 5
	if o.Quick {
		motifK, cliqueK = 3, 4
	}
	supp := o.fsmSupports("patents-ml")[1]
	queries := apps.SEEDQueries()

	kernels := []costKernel{
		{
			name: fmt.Sprintf("motifs(mico-sl,%d) vs gtries", motifK),
			baseline: func() (time.Duration, error) {
				_, r := singlethread.Motifs(micoSL, motifK)
				return r.Wall, nil
			},
			fractal: func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error) {
				_, r, err := apps.Motifs(bg, ctx, ctx.FromGraph(micoSL), motifK, apps.EngineAuto)
				if err != nil {
					return nil, 0, err
				}
				return r.Steps, r.Wall, nil
			},
		},
		{
			name: fmt.Sprintf("cliques(mico-sl,%d) vs gtries", cliqueK),
			baseline: func() (time.Duration, error) {
				return singlethread.Cliques(micoSL, cliqueK).Wall, nil
			},
			fractal: func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error) {
				_, r, err := apps.Cliques(bg, ctx, ctx.FromGraph(micoSL), cliqueK)
				if err != nil {
					return nil, 0, err
				}
				return r.Steps, r.Wall, nil
			},
		},
		{
			name: "fsm(patents-ml) vs grami",
			baseline: func() (time.Duration, error) {
				_, r := singlethread.FSM(patentsML, supp, 3)
				return r.Wall, nil
			},
			fractal: func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error) {
				r, err := apps.FSM(bg, ctx, ctx.FromGraph(patentsML), supp, apps.FSMOptions{MaxEdges: 3})
				if err != nil {
					return nil, 0, err
				}
				var wall time.Duration
				for _, s := range r.Steps {
					wall += s.Wall
				}
				return r.Steps, wall, nil
			},
		},
		{
			name: "query-q2(patents-sl) vs gtries",
			baseline: func() (time.Duration, error) {
				r, err := singlethread.Query(patentsSL, queries[1])
				return r.Wall, err
			},
			fractal: func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error) {
				_, r, err := apps.Query(bg, ctx, ctx.FromGraph(patentsSL), queries[1], apps.EngineAuto)
				if err != nil {
					return nil, 0, err
				}
				return r.Steps, r.Wall, nil
			},
		},
		{
			name: "query-q3(patents-sl) vs gtries",
			baseline: func() (time.Duration, error) {
				r, err := singlethread.Query(patentsSL, queries[2])
				return r.Wall, err
			},
			fractal: func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error) {
				_, r, err := apps.Query(bg, ctx, ctx.FromGraph(patentsSL), queries[2], apps.EngineAuto)
				if err != nil {
					return nil, 0, err
				}
				return r.Steps, r.Wall, nil
			},
		},
	}
	maxCores := 16
	if o.Quick {
		maxCores = 4
		kernels = kernels[:2]
	}
	return runCOST(o, kernels, maxCores)
}

// Fig19 reports strong scalability: work-balance efficiency (and the
// implied speedup cores×efficiency) for the four most expensive kernels as
// cores grow.
func Fig19(o Options) error {
	micoSL, err := o.dataset("mico-sl")
	if err != nil {
		return err
	}
	youtubeSL, err := o.dataset("youtube-sl")
	if err != nil {
		return err
	}
	patentsML, err := o.dataset("patents-ml")
	if err != nil {
		return err
	}
	supp := o.fsmSupports("patents-ml")[2]
	queries := apps.SEEDQueries()

	type kernel struct {
		name string
		run  func(ctx *fractal.Context) ([]fractal.StepReport, error)
	}
	kernels := []kernel{
		{"motifs(mico-sl,3)", func(ctx *fractal.Context) ([]fractal.StepReport, error) {
			_, r, err := apps.Motifs(bg, ctx, ctx.FromGraph(micoSL), 3, apps.EngineAuto)
			if err != nil {
				return nil, err
			}
			return r.Steps, nil
		}},
		{"cliques(youtube-sl,4)", func(ctx *fractal.Context) ([]fractal.StepReport, error) {
			_, r, err := apps.Cliques(bg, ctx, ctx.FromGraph(youtubeSL), 4)
			if err != nil {
				return nil, err
			}
			return r.Steps, nil
		}},
		{"fsm(patents-ml)", func(ctx *fractal.Context) ([]fractal.StepReport, error) {
			r, err := apps.FSM(bg, ctx, ctx.FromGraph(patentsML), supp, apps.FSMOptions{MaxEdges: 2})
			if err != nil {
				return nil, err
			}
			return r.Steps, nil
		}},
		{"query-q6(youtube-sl)", func(ctx *fractal.Context) ([]fractal.StepReport, error) {
			_, r, err := apps.Query(bg, ctx, ctx.FromGraph(youtubeSL), queries[5], apps.EngineAuto)
			if err != nil {
				return nil, err
			}
			return r.Steps, nil
		}},
	}
	sweep := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		sweep = []int{1, 2, 4}
		kernels = kernels[:2]
	}
	tw := table(o.out())
	fmt.Fprintln(tw, "kernel\tcores\tefficiency\timplied speedup")
	for _, k := range kernels {
		for _, cores := range sweep {
			ctx, err := newCtx(1, cores, fractal.Config{WS: fractal.WSBoth})
			if err != nil {
				return err
			}
			steps, err := k.run(ctx)
			ctx.Close()
			if err != nil {
				return err
			}
			mk, total := lastBalance(steps)
			eff := 0.0
			if mk > 0 {
				eff = float64(total) / (float64(cores) * float64(mk))
			}
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.1f×\n", k.name, cores, eff, eff*float64(cores))
		}
	}
	return tw.Flush()
}

// Fig20b runs the COST analysis of the optimized implementations: the
// KClist custom enumerator vs the single-threaded KClist, and triangles vs
// the Neo4j-style intersection counter.
func Fig20b(o Options) error {
	micoSL, err := o.dataset("mico-sl")
	if err != nil {
		return err
	}
	orkut, err := o.dataset("orkut")
	if err != nil {
		return err
	}
	cliqueK := 6
	if o.Quick {
		cliqueK = 4
	}
	kernels := []costKernel{
		{
			name: fmt.Sprintf("kclist-cliques(mico-sl,%d) vs kclist-st", cliqueK),
			baseline: func() (time.Duration, error) {
				return singlethread.Cliques(micoSL, cliqueK).Wall, nil
			},
			fractal: func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error) {
				_, r, err := apps.CliquesKClist(bg, ctx, ctx.FromGraph(micoSL), cliqueK)
				if err != nil {
					return nil, 0, err
				}
				return r.Steps, r.Wall, nil
			},
		},
		{
			name: "triangles(orkut) vs neo4j-style",
			baseline: func() (time.Duration, error) {
				return singlethread.Triangles(orkut).Wall, nil
			},
			fractal: func(ctx *fractal.Context) ([]fractal.StepReport, time.Duration, error) {
				_, r, err := apps.Triangles(bg, ctx, ctx.FromGraph(orkut))
				if err != nil {
					return nil, 0, err
				}
				return r.Steps, r.Wall, nil
			},
		},
	}
	maxCores := 8
	if o.Quick {
		maxCores = 4
	}
	return runCOST(o, kernels, maxCores)
}
