package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"fractal"
	"fractal/internal/metrics"
)

// LoadRunReport reads a snapshot file written by `fractal -metrics-out`.
func LoadRunReport(path string) (*fractal.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fractal.ReadRunReport(f)
}

// AnalyzeRunReport prints the drill-down view of a RunReport: the per-step
// time partition and work distribution, quiescence-round latencies, steal
// outcomes reconstructed from the trace journal, and transport totals.
func AnalyzeRunReport(rep *fractal.RunReport, w io.Writer) error {
	fmt.Fprintf(w, "run: %d worker(s) × %d core(s), ws=%s, wall=%s\n",
		rep.Workers, rep.CoresPerWorker, rep.WS, ms(rep.Wall))

	tw := table(w)
	fmt.Fprintln(tw, "step\twf\twall\tbusy\tidle\tsteal\tutil\teff\tEC\tsubgraphs\tquick-pat\tcanon\tcls-pruned\tsub-pruned\trounds\tmean-round-wait")
	for _, s := range rep.Steps {
		if s.Skipped {
			fmt.Fprintf(tw, "%d\t%s\t(skipped)\n", s.Index, s.Workflow)
			continue
		}
		var meanWait time.Duration
		if len(s.Rounds) > 0 {
			var total time.Duration
			for _, q := range s.Rounds {
				total += q.Wait
			}
			meanWait = total / time.Duration(len(s.Rounds))
		}
		m := s.Metrics
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%.0f%%\t%.0f%%\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			s.Index, s.Workflow, ms(s.Wall),
			ms(time.Duration(m.BusyTimeNs)), ms(time.Duration(m.IdleTimeNs)),
			ms(time.Duration(m.StealTimeNs)),
			100*s.Utilization, 100*s.Balance.Efficiency,
			s.EC, s.Subgraphs, m.QuickPatterns, m.CanonCalls, m.ClassesPruned, m.SubgraphsPruned, s.RoundsTotal, ms(meanWait))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(rep.Trace) > 0 {
		var intHit, intMiss, extHit, extMiss, drains int
		for _, ev := range rep.Trace {
			switch ev.Kind {
			case metrics.TraceStealAttempt:
				switch {
				case !ev.External && ev.Hit:
					intHit++
				case !ev.External:
					intMiss++
				case ev.Hit:
					extHit++
				default:
					extMiss++
				}
			case metrics.TraceDrain:
				drains++
			}
		}
		fmt.Fprintf(w, "trace: %d events retained (%d dropped); steal attempts int=%d hit/%d miss-spells, ext=%d hit/%d miss; drains=%d\n",
			len(rep.Trace), rep.TraceDropped, intHit, intMiss, extHit, extMiss, drains)
	}

	tot := rep.Transport.Total()
	fmt.Fprintf(w, "transport: %d msgs / %s sent, %d msgs / %s received\n",
		tot.MsgsSent, bytesHuman(tot.BytesSent), tot.MsgsRecv, bytesHuman(tot.BytesRecv))
	return nil
}
