package sharebackup

import (
	"context"
	"fmt"

	"sharebackup/internal/coflow"
	"sharebackup/internal/failure"
	"sharebackup/internal/metrics"
	"sharebackup/internal/routing"
	"sharebackup/internal/sweep"
	"sharebackup/internal/topo"
)

// Fig1Config parameterizes the Figure 1(a)/(b) reproduction: the percentage
// of flows and coflows affected as the failure rate varies, on a k-ary
// fat-tree carrying rack-level coflow traffic with ECMP routing.
type Fig1Config struct {
	// K is the fat-tree parameter. Default 16 (the paper's failure
	// study; 128 racks at 10:1 oversubscription).
	K int
	// Seed drives workload generation, ECMP hashing and failure
	// sampling.
	Seed int64
	// Trace overrides the workload; by default a synthetic trace with
	// the Facebook-like marginals is generated for the network's racks.
	Trace *coflow.Trace
	// Workers sizes the sweep worker pool (0 = GOMAXPROCS). Every
	// (rate, trial) sample is one sweep shard with its own RNG substream,
	// so the result is bit-identical for any worker count.
	Workers int
}

// fig1Rates is the failure-rate sweep, the figures' x-axis: the fraction
// of candidate elements failed.
var fig1Rates = [...]float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2}

// fig1Trials is how many independent failure samples each rate averages.
const fig1Trials = 3

func (c *Fig1Config) setDefaults() {
	if c.K == 0 {
		c.K = 16
	}
}

// Check rejects a K (default 16) that breaks the fat-tree rule.
func (c Fig1Config) Check() error {
	c.setDefaults()
	return topo.CheckK(c.K)
}

// Fig1Result is one affected-percentage sweep.
type Fig1Result struct {
	// Rates is the x-axis.
	Rates []float64
	// FlowPct and CoflowPct are the averaged percentages of affected
	// flows and coflows at each rate.
	FlowPct   []float64
	CoflowPct []float64
	// SingleFlowPct / SingleCoflowPct are the percentages under exactly
	// one failed element (averaged over fig1Trials samples) — the paper's
	// headline single-failure numbers (29.6% of coflows for one node,
	// 17% for one link).
	SingleFlowPct   float64
	SingleCoflowPct float64
	// Magnification is CoflowPct/FlowPct per rate (the paper reports
	// 3.3x-90x).
	Magnification []float64
}

// Fig1a reproduces Figure 1(a): impact of node failures. Failure candidates
// are aggregation and core switches (rerouting cannot survive an edge
// failure for single-homed racks; see internal/failure).
func Fig1a(cfg Fig1Config) (*Fig1Result, error) {
	return fig1(cfg, true)
}

// Fig1b reproduces Figure 1(b): impact of link failures on the switching
// fabric.
func Fig1b(cfg Fig1Config) (*Fig1Result, error) {
	return fig1(cfg, false)
}

// rackFatTree builds the failure study's network: one rack endpoint per
// edge switch, 10:1 oversubscribed access.
func rackFatTree(k int, ab bool) (*topo.FatTree, error) {
	return topo.NewFatTree(topo.Config{
		K:            k,
		HostsPerEdge: 1,
		LinkCapacity: 1,
		HostCapacity: 10 * float64(k/2),
		AB:           ab,
	})
}

// flowRef ties a routed flow back to its coflow.
type flowRef struct {
	coflow int
	path   topo.Path
}

// routeTrace assigns every trace flow an ECMP path on ft. Trace racks are
// mapped onto the fat-tree's racks modulo the rack count; flows that become
// rack-local under the mapping are dropped (they use no network).
func routeTrace(ft *topo.FatTree, tr *coflow.Trace, seed int64) ([]flowRef, error) {
	racks := ft.NumHosts()
	ecmp := &routing.ECMP{FT: ft, Seed: uint64(seed)}
	var out []flowRef
	flowID := uint64(0)
	for ci := range tr.Coflows {
		c := &tr.Coflows[ci]
		for _, f := range c.Flows {
			src, dst := f.Src%racks, f.Dst%racks
			flowID++
			if src == dst {
				continue
			}
			p, err := ecmp.PathFor(src, dst, flowID)
			if err != nil {
				return nil, err
			}
			out = append(out, flowRef{coflow: ci, path: p})
		}
	}
	return out, nil
}

// fig1Sample is one sweep shard's output: the affected percentages of a
// single failure sample at one rate point.
type fig1Sample struct {
	Flow, Coflow float64
}

func fig1(cfg Fig1Config, nodes bool) (*Fig1Result, error) {
	cfg.setDefaults()
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	ft, err := rackFatTree(cfg.K, false)
	if err != nil {
		return nil, err
	}
	tr := cfg.Trace
	if tr == nil {
		tr, err = coflow.Generate(coflow.GenConfig{Racks: ft.NumHosts(), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
	}
	flows, err := routeTrace(ft, tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("sharebackup: Fig1: trace produced no network flows")
	}
	// Candidate lists are a pure function of the topology; the injector
	// building them is never sampled from (each shard gets its own).
	cands := failure.NewInjector(ft, cfg.Seed)
	nodeCands := cands.ReroutableSwitches()
	linkCands := cands.FabricLinks()

	// The trial space: rate point 0 is the single-failure headline number
	// (rate rounding to exactly one element), points 1..len(fig1Rates) the
	// figure's x-axis; each point is averaged over fig1Trials independent
	// failure samples. One (point, trial) pair is one sweep shard drawing
	// its failure sample from its own substream, so the sweep merges
	// identically for any worker count.
	var singleRate float64
	if nodes {
		singleRate = 0.5 / float64(len(nodeCands)) // rounds to one element
	} else {
		singleRate = 0.5 / float64(len(linkCands))
	}
	points := append([]float64{singleRate}, fig1Rates[:]...)
	name := "fig1b"
	if nodes {
		name = "fig1a"
	}
	samples, err := sweep.Run(context.Background(), sweep.Config{
		Name:    name,
		Shards:  len(points) * fig1Trials,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
	}, func(_ context.Context, sh sweep.Shard) (fig1Sample, error) {
		rate := points[sh.Index/fig1Trials]
		inj := failure.NewInjector(ft, sh.Seed)
		var blocked *topo.Blocked
		if nodes {
			sample, err := inj.SampleNodes(nodeCands, rate)
			if err != nil {
				return fig1Sample{}, err
			}
			blocked = failure.Blocked(sample, nil)
		} else {
			sample, err := inj.SampleLinks(linkCands, rate)
			if err != nil {
				return fig1Sample{}, err
			}
			blocked = failure.Blocked(nil, sample)
		}
		f, c := affected(flows, len(tr.Coflows), blocked)
		return fig1Sample{Flow: f, Coflow: c}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{Rates: points[1:]}
	for pi := range points {
		var f, c float64
		for trial := 0; trial < fig1Trials; trial++ {
			s := samples[pi*fig1Trials+trial]
			f += s.Flow
			c += s.Coflow
		}
		f /= fig1Trials
		c /= fig1Trials
		if pi == 0 {
			res.SingleFlowPct, res.SingleCoflowPct = f, c
			continue
		}
		res.FlowPct = append(res.FlowPct, f)
		res.CoflowPct = append(res.CoflowPct, c)
		res.Magnification = append(res.Magnification, metrics.Ratio(c, f))
	}
	return res, nil
}

// affected returns the percentage of flows and coflows whose ECMP path
// crosses a failed element ("a flow is considered affected if it traverses a
// failed node or link, and a coflow is affected if at least one flow in its
// set gets affected").
func affected(flows []flowRef, numCoflows int, blocked *topo.Blocked) (flowPct, coflowPct float64) {
	hit := 0
	coflowHit := make(map[int]bool)
	for _, f := range flows {
		if !blocked.PathOK(f.path) {
			hit++
			coflowHit[f.coflow] = true
		}
	}
	return 100 * float64(hit) / float64(len(flows)), 100 * float64(len(coflowHit)) / float64(numCoflows)
}

// Series renders the result as two plottable series (the figure's two
// curves).
func (r *Fig1Result) Series(xlabel string) (flows, coflows *metrics.Series) {
	flows = &metrics.Series{Name: "flows %", XLabel: xlabel}
	coflows = &metrics.Series{Name: "coflows %", XLabel: xlabel}
	for i, rate := range r.Rates {
		flows.Add(rate, r.FlowPct[i])
		coflows.Add(rate, r.CoflowPct[i])
	}
	return flows, coflows
}
