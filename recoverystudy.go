package sharebackup

import (
	"context"
	"time"

	"sharebackup/internal/metrics"
	"sharebackup/internal/obs"
	"sharebackup/internal/sweep"
)

// This file is the Section 5.3 many-failover study behind `sbsweep -sweep
// recovery` and `sbexperiments -json`: where RecoveryLatency states the
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
	// Trials is the number of node+link failover pairs per technology.
	Trials int
	// Workers sizes the sweep worker pool (0 = GOMAXPROCS). The study
	// runs in virtual time — each trial is a pure function of its index —
	// so results are bit-identical for any worker count.
	Workers int
	// Checkpoint, when set, is the sweep checkpoint file prefix (one file
	// per technology, suffixed ".<tech>"); with Resume, completed trials
	// are not re-run.
	Checkpoint string
	Resume     bool
	// TraceSink, when non-nil, additionally receives every trial's events,
	// shard-tagged so concurrent trials can be told apart (pass the sink
	// from obs.TraceSinkToFile).
	TraceSink obs.Sink
}

// recoverySpan is one recovery's phase latencies as carried between a sweep
// shard and the merge; JSON-tagged so shards checkpoint.
type recoverySpan struct {
	Kind        string        `json:"kind"`
	DetectionNS time.Duration `json:"detection_ns"`
	ReportNS    time.Duration `json:"report_ns"`
	ReconfigNS  time.Duration `json:"reconfig_ns"`
	TotalNS     time.Duration `json:"total_ns"`
}

// RunRecoveryBench drives cfg.Trials node and link failovers per circuit
// technology, collecting their recovery spans on a private event bus.
// Detection latency is varied by shifting the failure time against the last
// heartbeat, as real failures land at arbitrary probe phases. Trials are
// sharded across a sweep worker pool: each builds private systems on a
// private bus, so trials are independent and the merged phase samples are
// bit-identical for any worker count.
func RunRecoveryBench(cfg RecoveryBenchConfig) (*RecoveryBenchResult, error) {
	k, n, trials := cfg.K, cfg.N, cfg.Trials
	if k == 0 {
		k = 8
	}
	res := &RecoveryBenchResult{Experiment: "recovery-latency", K: k, N: n, Trials: trials}
	for _, tech := range []Technology{Crosspoint, MEMS2D} {
		tech := tech
		checkpoint := ""
		if cfg.Checkpoint != "" {
			checkpoint = cfg.Checkpoint + "." + tech.String()
		}
		var spans [][]recoverySpan
		var err error
		if trials > 0 {
			spans, err = sweep.Run(context.Background(), sweep.Config{
				Name: "recovery-" + tech.String(), Shards: trials,
				Workers: cfg.Workers, Checkpoint: checkpoint, Resume: cfg.Resume,
			}, func(_ context.Context, sh sweep.Shard) ([]recoverySpan, error) {
				i := sh.Index
				bus := &obs.Bus{}
				col := obs.NewSpanCollector()
				bus.Attach(col)
				if cfg.TraceSink != nil {
					bus.Attach(&obs.ShardTagger{Shard: sh.ID(), Dst: cfg.TraceSink})
				}
				pod := i % k
				// Node failover: one agg switch per trial, failure time phased
				// against its heartbeat.
				sys, err := New(Config{K: k, N: n, Tech: tech, Obs: bus})
				if err != nil {
					return nil, err
				}
				probe := sys.Controller.Config().ProbeInterval
				victim := sys.Network.AggGroup(pod).Slots()[i%(k/2)]
				sys.Controller.Heartbeat(victim, 0)
				at := probe + time.Duration(i%7)*probe/8
				if _, err := sys.FailNode(victim, at); err != nil {
					return nil, err
				}
				// Link failover: fresh system so every trial starts with a full
				// backup pool.
				sys, err = New(Config{K: k, N: n, Tech: tech, Obs: bus})
				if err != nil {
					return nil, err
				}
				// Edge slot 0's up-port k/2 reaches agg slot 0's down-port 0
				// (rotation j=0) in every pod.
				edge := sys.Network.EdgeGroup(pod).Slots()[0]
				agg := sys.Network.AggGroup(pod).Slots()[0]
				if _, err := sys.FailLink(
					EndPoint{Switch: edge, Port: k / 2},
					EndPoint{Switch: agg, Port: 0},
					at,
				); err != nil {
					return nil, err
				}
				var out []recoverySpan
				for _, sp := range col.Spans() {
					if !sp.Complete {
						continue
					}
					out = append(out, recoverySpan{
						Kind: sp.Kind, DetectionNS: sp.Detection, ReportNS: sp.Report,
						ReconfigNS: sp.Reconfig, TotalNS: sp.Total,
					})
				}
				return out, nil
			})
			if err != nil {
				return nil, err
			}
		}
		// Fold the per-trial spans back into breakdowns in shard order —
		// the exact sample order the sequential loop produced.
		all := &obs.Breakdown{}
		byKind := map[string]*obs.Breakdown{
			"node": {Kind: "node"}, "link": {Kind: "link"},
		}
		for _, trial := range spans {
			for _, sp := range trial {
				all.Add(sp.DetectionNS, sp.ReportNS, sp.ReconfigNS, sp.TotalNS)
				if b := byKind[sp.Kind]; b != nil {
					b.Add(sp.DetectionNS, sp.ReportNS, sp.ReconfigNS, sp.TotalNS)
				}
			}
		}
		bt := RecoveryBenchTech{
			Tech:       tech.String(),
			Recoveries: all.N(),
			PhasesUS:   all.Summaries(),
			Kinds:      make(map[string]RecoveryBenchKind),
		}
		for _, kind := range []string{"node", "link"} {
			b := byKind[kind]
			bt.Kinds[kind] = RecoveryBenchKind{Recoveries: b.N(), PhasesUS: b.Summaries()}
		}
		res.Techs = append(res.Techs, bt)
	}
	return res, nil
}
