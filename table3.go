package sharebackup

import (
	"fmt"

	"sharebackup/internal/fluid"
	"sharebackup/internal/routing"
	"sharebackup/internal/topo"
)

// Table3Row is one architecture's measured entry for Table 3.
type Table3Row struct {
	Arch string
	// NoBandwidthLoss: delivered aggregate throughput under a single
	// failure equals the failure-free baseline.
	NoBandwidthLoss bool
	// NoPathDilation: no flow runs on a path longer than its shortest.
	NoPathDilation bool
	// NoUpstreamRepair: every repair decision happens adjacent to the
	// failure (or no routing change at all).
	NoUpstreamRepair bool

	// The measurements behind the checkmarks.
	Throughput         float64 // aggregate steady-state rate under failure
	BaselineThroughput float64
	MaxHops            int
	ShortestHops       int
}

// Table3 measures the paper's qualitative Table 3 on a k-ary fat-tree with
// one aggregation-switch failure under a saturating all-to-all workload of
// long-lived flows (every ordered rack pair), so that any capacity removed
// from the fabric shows up as lost aggregate throughput.
func Table3(k int, seed int64) ([]Table3Row, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("sharebackup: Table3: k=%d must be even and >= 4", k)
	}
	ft, err := rackFatTree(k, false)
	if err != nil {
		return nil, err
	}
	f10, err := rackFatTree(k, true)
	if err != nil {
		return nil, err
	}

	// Fail the first aggregation switch of pod 0 in both topologies.
	fail := func(t *topo.FatTree) *topo.Blocked {
		b := topo.NewBlocked()
		b.BlockNode(t.Agg(0, 0))
		return b
	}

	type arch struct {
		name   string
		ft     *topo.FatTree
		scheme rerouteScheme
	}
	var rows []Table3Row
	for _, a := range []arch{
		{"ShareBackup", ft, schemeShareBackup},
		{"Fat-tree", ft, schemeGlobalOptimal},
		{"F10", f10, schemeF10Local},
	} {
		flows, err := allToAllFlows(a.ft, seed)
		if err != nil {
			return nil, err
		}
		baseline, _, err := steadyThroughput(a.ft, flows)
		if err != nil {
			return nil, err
		}
		blocked := fail(a.ft)
		rerouted, _, _ := applyScheme(a.ft, flows, blocked, a.scheme)
		// Under ShareBackup the failed hardware is replaced, so the
		// effective topology is whole; for the rerouting schemes the
		// blocked element's capacity is unusable because no path may
		// traverse it.
		got, maxHops, err := steadyThroughput(a.ft, rerouted)
		if err != nil {
			return nil, err
		}
		row := Table3Row{
			Arch:               a.name,
			Throughput:         got,
			BaselineThroughput: baseline,
			MaxHops:            maxHops,
			ShortestHops:       6,
			NoBandwidthLoss:    got >= baseline*(1-1e-9),
			NoPathDilation:     maxHops <= 6,
			NoUpstreamRepair:   !hasUpstreamRepair(flows, rerouted, blocked),
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// allToAllFlows builds one long-lived flow for every ordered rack pair — a
// demand that saturates the fabric, so delivered throughput tracks available
// capacity.
func allToAllFlows(ft *topo.FatTree, seed int64) ([]flowRef, error) {
	racks := ft.NumHosts()
	ecmp := &routing.ECMP{FT: ft, Seed: uint64(seed)}
	flows := make([]flowRef, 0, racks*(racks-1))
	id := uint64(0)
	for src := 0; src < racks; src++ {
		for dst := 0; dst < racks; dst++ {
			if src == dst {
				continue
			}
			id++
			p, err := ecmp.PathFor(src, dst, id)
			if err != nil {
				return nil, err
			}
			flows = append(flows, flowRef{coflow: src, path: p})
		}
	}
	return flows, nil
}

// steadyThroughput computes the aggregate max-min rate of the flow set and
// the maximum hop count in use. Stalled (disconnected) flows contribute
// zero.
func steadyThroughput(ft *topo.FatTree, flows []flowRef) (total float64, maxHops int, err error) {
	sim := fluid.New(ft.Topology)
	for i, f := range flows {
		if err := sim.AddFlow(fluid.FlowID(i), 1e15, 0, f.path); err != nil {
			return 0, 0, err
		}
		if h := f.path.Hops(); h > maxHops {
			maxHops = h
		}
	}
	if err := sim.Run(0); err != nil {
		return 0, 0, err
	}
	for i := range flows {
		total += sim.Flow(fluid.FlowID(i)).Rate()
	}
	return total, maxHops, nil
}

// hasUpstreamRepair reports whether any rerouted flow changed its path at a
// point not adjacent to the failure: the node where old and new paths
// diverge should be the node immediately upstream of the failed element for
// a local repair.
func hasUpstreamRepair(before, after []flowRef, blocked *topo.Blocked) bool {
	for i := range before {
		old, new_ := before[i].path, after[i].path
		if old.Hops() == 0 || new_.Hops() == 0 {
			continue
		}
		if samePath(old, new_) {
			continue
		}
		// Find the divergence point.
		d := 0
		for d < len(old.Nodes) && d < len(new_.Nodes) && old.Nodes[d] == new_.Nodes[d] {
			d++
		}
		if d == 0 {
			return true // diverged at the source host: maximally upstream
		}
		// Local repair means the element right after the last common
		// node on the OLD path is the failed one.
		lastCommon := d - 1
		adjacent := false
		if lastCommon < len(old.Links) && blocked.LinkBlocked(old.Links[lastCommon]) {
			adjacent = true
		}
		if lastCommon+1 < len(old.Nodes) && blocked.NodeBlocked(old.Nodes[lastCommon+1]) {
			adjacent = true
		}
		if !adjacent {
			return true
		}
	}
	return false
}

func samePath(a, b topo.Path) bool {
	if len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}
