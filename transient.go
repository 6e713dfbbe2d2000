package sharebackup

import (
	"fmt"
	"math"
	"time"

	"sharebackup/internal/fluid"
	"sharebackup/internal/topo"
)

// The paper's failure study deliberately simulates "the final states after
// failures without the transient dynamics" (Section 2.2). This file goes one
// step further: a transient study that models the recovery window itself —
// traffic through the failed element stalls for the scheme's recovery
// latency, then resumes on whatever path the scheme provides. It quantifies
// the paper's Section 5.3 argument end to end: ShareBackup's sub-2ms gap is
// invisible at coflow timescales, while rerouting's lasting bandwidth loss
// is what actually hurts.

// TransientConfig parameterizes the transient study.
type TransientConfig struct {
	// K is the fat-tree parameter. Default 8.
	K int
	// Seed drives ECMP hashing.
	Seed int64
}

const (
	// transientFlowBytes is each reference flow's size: a several-second
	// transfer at the all-to-all max-min share of a 10 Gbps fabric, so
	// millisecond gaps are ~1e-4 of the CCT.
	transientFlowBytes = 1e9
	// transientFailAfter is when the aggregation switch fails, as a
	// fraction of the baseline completion time.
	transientFailAfter = 0.25
)

// TransientRow is one scheme's outcome.
type TransientRow struct {
	Scheme string
	// Gap is the recovery window applied to affected flows.
	Gap time.Duration
	// MeanSlowdown / MaxSlowdown are flow completion times against the
	// no-failure baseline.
	MeanSlowdown float64
	MaxSlowdown  float64
	// Disconnected counts flows that never recovered a path.
	Disconnected int
}

// TransientStudy runs an all-to-all workload, fails an aggregation switch
// mid-transfer, applies each scheme's recovery gap and post-recovery paths,
// and reports completion-time slowdowns against the unfailed baseline.
func TransientStudy(cfg TransientConfig) ([]TransientRow, error) {
	if cfg.K == 0 {
		cfg.K = 8
	}
	// Real units so millisecond gaps are measurable against seconds-scale
	// transfers: 10 Gbps fabric links, 10:1 oversubscribed rack access.
	const linkBps = 1.25e9
	mk := func(ab bool) (*topo.FatTree, error) {
		return topo.NewFatTree(topo.Config{
			K: cfg.K, HostsPerEdge: 1,
			LinkCapacity: linkBps,
			HostCapacity: 10 * float64(cfg.K/2) * linkBps,
			AB:           ab,
		})
	}
	ft, err := mk(false)
	if err != nil {
		return nil, err
	}
	f10, err := mk(true)
	if err != nil {
		return nil, err
	}

	// Recovery gaps: Section 5.3's totals (probe + comm + crosspoint reset,
	// and probe + rule update), from the latency table's crosspoint and
	// rerouting rows.
	latency, err := RecoveryLatency(cfg.K)
	if err != nil {
		return nil, err
	}
	sbGap, rerouteGap := latency[0].Total, latency[len(latency)-1].Total

	type scheme struct {
		name   string
		ft     *topo.FatTree
		mode   rerouteScheme
		gap    time.Duration
		victim topo.NodeID
	}
	schemes := []scheme{
		{"ShareBackup", ft, schemeShareBackup, sbGap, ft.Agg(0, 0)},
		{"fat-tree", ft, schemeGlobalOptimal, rerouteGap, ft.Agg(0, 0)},
		{"F10", f10, schemeF10Local, rerouteGap, f10.Agg(0, 0)},
	}

	var rows []TransientRow
	for _, s := range schemes {
		flows, err := allToAllFlows(s.ft, cfg.Seed)
		if err != nil {
			return nil, err
		}
		baseline, err := completionTimes(s.ft, flows, transientFlowBytes, nil, 0, 0, s.mode)
		if err != nil {
			return nil, err
		}
		baseMax := 0.0
		for _, v := range baseline {
			if v > baseMax {
				baseMax = v
			}
		}
		blocked := topo.NewBlocked()
		blocked.BlockNode(s.victim)
		failAt := transientFailAfter * baseMax
		withFailure, err := completionTimes(s.ft, flows, transientFlowBytes, blocked, failAt, s.gap.Seconds(), s.mode)
		if err != nil {
			return nil, err
		}
		row := TransientRow{Scheme: s.name, Gap: s.gap}
		count := 0
		for i := range flows {
			if math.IsInf(withFailure[i], 1) {
				row.Disconnected++
				continue
			}
			sd := withFailure[i] / baseline[i]
			row.MeanSlowdown += sd
			if sd > row.MaxSlowdown {
				row.MaxSlowdown = sd
			}
			count++
		}
		if count > 0 {
			row.MeanSlowdown /= float64(count)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// completionTimes simulates the flow set and returns per-flow completion
// times. When blocked is non-nil, the failure occurs at failAt: affected
// flows stall for gapSec, then resume on the scheme's recovery path
// (ShareBackup: the same path at full capacity; rerouting: a surviving or
// detour path).
func completionTimes(ft *topo.FatTree, flows []flowRef, bytes float64, blocked *topo.Blocked, failAt, gapSec float64, mode rerouteScheme) ([]float64, error) {
	sim := fluid.New(ft.Topology)
	for i, f := range flows {
		if err := sim.AddFlow(fluid.FlowID(i), bytes, 0, f.path); err != nil {
			return nil, err
		}
	}
	if blocked != nil {
		if err := sim.Run(failAt); err != nil {
			return nil, err
		}
		// Failure: affected, unfinished flows stall.
		for i, f := range flows {
			if sim.Flow(fluid.FlowID(i)).Done() || blocked.PathOK(f.path) {
				continue
			}
			if err := sim.SetPath(fluid.FlowID(i), topo.Path{}); err != nil {
				return nil, err
			}
		}
		if err := sim.Run(failAt + gapSec); err != nil {
			return nil, err
		}
		// Recovery: the scheme reroutes the flows still running, and the
		// stalled ones resume on their new routes.
		var running []flowRef
		var ids []fluid.FlowID
		for i, f := range flows {
			if !sim.Flow(fluid.FlowID(i)).Done() {
				running = append(running, f)
				ids = append(ids, fluid.FlowID(i))
			}
		}
		routes, hit, _ := applyScheme(ft, running, blocked, mode)
		for j, r := range routes {
			if !hit[j] || len(r.path.Nodes) == 0 {
				continue // unaffected, or left with no route: disconnected
			}
			if err := sim.SetPath(ids[j], r.path); err != nil {
				return nil, err
			}
		}
	}
	// Run(+Inf) returns once only permanently stalled flows remain.
	if err := sim.Run(math.Inf(1)); err != nil {
		return nil, err
	}
	out := make([]float64, len(flows))
	for i := range flows {
		fl := sim.Flow(fluid.FlowID(i))
		if fl.Done() {
			out[i] = fl.Finish()
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out, nil
}

// String renders the row compactly.
func (r TransientRow) String() string {
	return fmt.Sprintf("%-12s gap=%-10v mean=%.6fx max=%.4fx disconnected=%d",
		r.Scheme, r.Gap, r.MeanSlowdown, r.MaxSlowdown, r.Disconnected)
}
