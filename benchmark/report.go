package main

import (
	"fmt"
	"os"
	"time"

	"fractal/internal/sched"
)

// reportStats sums the RunReports of a traced round into the sched.*
// metrics. A round has one report per op that wrote one.
type reportStats struct {
	reports int
	master  bool // any report came from a -listen master

	ec, subgraphs, stealsInt, stealsExt, stealBytes, aggShipped int64
	msgs, bytes, rounds, peakState                              int64

	runWall, stepWall, busy, idle, steal, aggMerge, quiescenceWait time.Duration
	coreWall                                                       time.Duration // Σ cores x step wall, utilization's base
}

func readReport(path string) (*sched.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := sched.ReadRunReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// add folds one job's report in. master says the job ran under -listen,
// where the report holds only what the master itself saw.
func (s *reportStats) add(rep *sched.RunReport, master bool) {
	s.reports++
	s.master = s.master || master
	s.runWall += rep.Wall
	cores := rep.Workers * rep.CoresPerWorker
	for _, st := range rep.Steps {
		s.ec += st.EC
		s.subgraphs += st.Subgraphs
		s.stealsInt += st.StealsInternal
		s.stealsExt += st.StealsExternal
		s.stealBytes += st.StealBytes
		s.aggShipped += st.AggShippedBytes
		s.rounds += int64(st.RoundsTotal)
		s.peakState = max(s.peakState, st.PeakStateBytes)
		s.stepWall += st.Wall
		s.coreWall += st.Wall * time.Duration(cores)
		s.busy += time.Duration(st.Metrics.BusyTimeNs)
		s.idle += time.Duration(st.Metrics.IdleTimeNs)
		s.steal += time.Duration(st.Metrics.StealTimeNs)
		s.aggMerge += st.AggMergeTime
		for _, r := range st.Rounds {
			s.quiescenceWait += r.Wait
		}
	}
	t := rep.Transport.Total()
	s.msgs += t.MsgsSent
	s.bytes += t.BytesSent
}

// masterBlind is everything the workers count. A master's RunReport leaves
// it at 0 because no wire message carries the workers' collectors to the
// master (ROADMAP item 5); the issue names three of these, the report shows
// all eleven.
var masterBlind = []string{
	"sched.ec", "sched.subgraphs", "sched.steals_internal", "sched.steals_external", "sched.steal_bytes",
	"sched.agg_shipped_bytes", "sched.peak_state_bytes", "sched.busy_s", "sched.idle_s", "sched.steal_s",
	"sched.utilization",
}

// into writes the sched.* metrics. Under a master the blind ones become
// null: a 0 there would say "no work was done".
func (s *reportStats) into(m metrics) {
	m.set("sched.ec", float64(s.ec))
	m.set("sched.subgraphs", float64(s.subgraphs))
	m.set("sched.steals_internal", float64(s.stealsInt))
	m.set("sched.steals_external", float64(s.stealsExt))
	m.set("sched.steal_bytes", float64(s.stealBytes))
	m.set("sched.agg_shipped_bytes", float64(s.aggShipped))
	m.set("sched.transport_msgs", float64(s.msgs))
	m.set("sched.transport_bytes", float64(s.bytes))
	m.set("sched.quiescence_rounds", float64(s.rounds))
	m.set("sched.peak_state_bytes", float64(s.peakState))
	m.set("sched.step_wall_s", s.stepWall.Seconds())
	m.set("sched.busy_s", s.busy.Seconds())
	m.set("sched.idle_s", s.idle.Seconds())
	m.set("sched.steal_s", s.steal.Seconds())
	m.set("sched.agg_merge_s", s.aggMerge.Seconds())
	m.set("sched.quiescence_wait_s", s.quiescenceWait.Seconds())
	util := 0.0
	if s.coreWall > 0 {
		util = s.busy.Seconds() / s.coreWall.Seconds()
	}
	m.set("sched.utilization", util)
	if s.master {
		for _, name := range masterBlind {
			m.setNull(name, "not reported in master mode")
		}
	}
}
