package sharebackup

import (
	"context"
	"fmt"
	"time"

	"sharebackup/internal/metrics"
	"sharebackup/internal/obs"
	"sharebackup/internal/sweep"
)

// This file is the Section 5.3 many-failover study behind `sbexperiments
// -run recovery` (and its -json file): where RecoveryLatency states the
// Table 2 phase budget analytically, this drives real failovers through the
// controller in virtual time and reports the phase distribution they produce.

// RecoveryBenchResult is the machine-readable output of the study:
// per-phase order statistics over many recoveries, per circuit technology
// and recovery kind. All latencies are microseconds, the unit of the
// paper's Section 5.3 budget.
type RecoveryBenchResult struct {
	Experiment string              `json:"experiment"`
	K          int                 `json:"k"`
	N          int                 `json:"n"`
	Trials     int                 `json:"trials_per_kind"`
	Techs      []RecoveryBenchTech `json:"techs"`
}

// RecoveryBenchTech is one circuit technology's phase breakdown.
type RecoveryBenchTech struct {
	Tech       string                       `json:"tech"`
	Recoveries int                          `json:"recoveries"`
	PhasesUS   map[string]metrics.Summary   `json:"phases_us"`
	Kinds      map[string]RecoveryBenchKind `json:"kinds"`
}

// RecoveryBenchKind is the breakdown of one recovery kind ("node"/"link").
type RecoveryBenchKind struct {
	Recoveries int                        `json:"recoveries"`
	PhasesUS   map[string]metrics.Summary `json:"phases_us"`
}

// RecoveryBenchConfig parameterizes RunRecoveryBench.
type RecoveryBenchConfig struct {
	// K is the fat-tree parameter (default 8) and N the backup pool size.
	K, N int
	// Trials is the number of node+link failover pairs per technology
	// (at least 1).
	Trials int
	// Workers sizes the sweep worker pool (0 = GOMAXPROCS). The study
	// runs in virtual time — each trial is a pure function of its index —
	// so results are bit-identical for any worker count.
	Workers int
	// TraceSink, when non-nil, receives every trial's events. Each trial's
	// bus names its process "recovery-<tech>/<index>", so concurrent
	// trials stay apart in one file (pass the sink from
	// obs.TraceSinkToFile).
	TraceSink obs.Sink
}

// Check rejects a field that breaks its rule, by name.
func (c RecoveryBenchConfig) Check() error {
	if c.Trials < 1 {
		return fieldError("RecoveryBenchConfig", "Trials", c.Trials, "be at least 1")
	}
	return nil
}

// RunRecoveryBench drives cfg.Trials node and link failovers per circuit
// technology and folds the phases of the recoveries they return into
// breakdowns. Detection latency is varied by shifting the failure time
// against the last heartbeat, as real failures land at arbitrary probe
// phases. Trials are sharded across a sweep worker pool: each builds private
// systems on a private bus, so trials are independent and the merged phase
// samples are bit-identical for any worker count.
func RunRecoveryBench(cfg RecoveryBenchConfig) (*RecoveryBenchResult, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	k, n, trials := cfg.K, cfg.N, cfg.Trials
	if k == 0 {
		k = 8
	}
	res := &RecoveryBenchResult{Experiment: "recovery-latency", K: k, N: n, Trials: trials}
	for _, tech := range Technologies {
		recs, err := sweep.Run(context.Background(), sweep.Config{
			Name: "recovery-" + tech.String(), Shards: trials,
			Workers: cfg.Workers,
		}, func(_ context.Context, sh sweep.Shard) ([2]*Recovery, error) {
			i := sh.Index
			bus := &obs.Bus{}
			if cfg.TraceSink != nil {
				bus.SetProc(fmt.Sprintf("recovery-%s/%d", tech, i))
				bus.Attach(cfg.TraceSink)
			}
			pod := i % k
			// Node failover: one agg switch per trial, failure time phased
			// against its heartbeat.
			sys, err := New(Config{K: k, N: n, Tech: tech, Obs: bus})
			if err != nil {
				return [2]*Recovery{}, err
			}
			probe := sys.Controller.Config().ProbeInterval
			victim := sys.Network.AggGroup(pod).Slots()[i%(k/2)]
			sys.Controller.Heartbeat(victim, 0)
			at := probe + time.Duration(i%7)*probe/8
			node, err := sys.FailNode(victim, at)
			if err != nil {
				return [2]*Recovery{}, err
			}
			// Link failover: fresh system so every trial starts with a full
			// backup pool.
			sys, err = New(Config{K: k, N: n, Tech: tech, Obs: bus})
			if err != nil {
				return [2]*Recovery{}, err
			}
			// Edge slot 0's up-port k/2 reaches agg slot 0's down-port 0
			// (rotation j=0) in every pod.
			edge := sys.Network.EdgeGroup(pod).Slots()[0]
			agg := sys.Network.AggGroup(pod).Slots()[0]
			link, err := sys.FailLink(
				EndPoint{Switch: edge, Port: k / 2},
				EndPoint{Switch: agg, Port: 0},
				at,
			)
			return [2]*Recovery{node, link}, err
		})
		if err != nil {
			return nil, err
		}
		total := recoveryBreakdown(recs, "")
		bt := RecoveryBenchTech{
			Tech:       tech.String(),
			Recoveries: total.N(),
			PhasesUS:   total.Summaries(),
			Kinds:      make(map[string]RecoveryBenchKind),
		}
		for _, kind := range []string{"node", "link"} {
			b := recoveryBreakdown(recs, kind)
			bt.Kinds[kind] = RecoveryBenchKind{Recoveries: b.N(), PhasesUS: b.Summaries()}
		}
		res.Techs = append(res.Techs, bt)
	}
	return res, nil
}

// recoveryBreakdown folds the trials' recoveries of one kind ("" for all)
// into a phase breakdown, in shard order.
func recoveryBreakdown(trials [][2]*Recovery, kind string) *obs.Breakdown {
	b := &obs.Breakdown{}
	for _, trial := range trials {
		for _, rec := range trial {
			if kind == "" || rec.Kind == kind {
				b.Add(rec.Detection, rec.Comm, rec.Reconfig, rec.Total())
			}
		}
	}
	return b
}
