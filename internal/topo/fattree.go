package topo

import (
	"fmt"
	"sync/atomic"
)

// Config describes a fat-tree (or F10 AB fat-tree) to build.
type Config struct {
	// K is the fat-tree parameter: switch port count and number of pods.
	// It must be even and at least 4.
	K int

	// HostsPerEdge is the number of host endpoints attached to each edge
	// switch. It defaults to K/2 (the canonical fat-tree). The paper's
	// failure study uses rack-level traffic, which corresponds to
	// HostsPerEdge == 1 with an oversubscribed HostCapacity.
	HostsPerEdge int

	// LinkCapacity is the capacity of every switch-to-switch link.
	// It defaults to 1.
	LinkCapacity float64

	// HostCapacity is the capacity of every host-to-edge link. It defaults
	// to LinkCapacity. To model the paper's 10:1 oversubscription at rack
	// granularity, set HostsPerEdge to 1 and HostCapacity to
	// 10 * (K/2) * LinkCapacity.
	HostCapacity float64

	// AB selects F10's AB fat-tree wiring: pods alternate between two
	// aggregation-to-core wiring patterns (type A on even pods, type B on
	// odd pods) so that adjacent levels see diverse alternative paths.
	// When false, the canonical fat-tree wiring is used everywhere.
	AB bool
}

// CheckK is the fat-tree rule every builder and cost equation applies: k is
// even and at least 4.
func CheckK(k int) error {
	if k < 4 || k%2 != 0 {
		return fmt.Errorf("topo: fat-tree parameter k=%d must be even and >= 4", k)
	}
	return nil
}

func (c *Config) setDefaults() error {
	if err := CheckK(c.K); err != nil {
		return err
	}
	if c.HostsPerEdge == 0 {
		c.HostsPerEdge = c.K / 2
	}
	if c.HostsPerEdge < 0 {
		return fmt.Errorf("topo: HostsPerEdge=%d must be positive", c.HostsPerEdge)
	}
	if c.LinkCapacity == 0 {
		c.LinkCapacity = 1
	}
	if !validCapacity(c.LinkCapacity) {
		return fmt.Errorf("topo: LinkCapacity=%v must be positive and finite", c.LinkCapacity)
	}
	if c.HostCapacity == 0 {
		c.HostCapacity = c.LinkCapacity
	}
	if !validCapacity(c.HostCapacity) {
		return fmt.Errorf("topo: HostCapacity=%v must be positive and finite", c.HostCapacity)
	}
	return nil
}

// FatTree is a built fat-tree (or AB fat-tree) topology with structured
// accessors for its switches and hosts.
type FatTree struct {
	*Topology
	Cfg Config

	edge     [][]NodeID // [pod][j] -> E_{pod,j}
	agg      [][]NodeID // [pod][j] -> A_{pod,j}
	core     []NodeID   // [j] -> C_j
	hosts    []NodeID   // [j] -> H_j
	hostEdge []NodeID   // host global index -> its edge switch
	hostLink []LinkID   // host global index -> its access link

	store atomic.Pointer[PathStore] // lazily created shared path store
}

// NewFatTree builds a fat-tree from cfg. Node IDs are assigned
// deterministically: all edge switches pod by pod, then all aggregation
// switches, then cores, then hosts.
//
// Link IDs follow the wiring rule, a contract the path store resolves links
// by (edgeAggLink, aggCoreLink): first the edge↔aggregation links by (pod,
// edge, agg), then the aggregation↔core links by (pod, agg, t) with t in
// coreIndexOfAgg's order, then each host's access link.
// TestFatTreeLinkOrderContract fails if these loops are reordered.
func NewFatTree(cfg Config) (*FatTree, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	k := cfg.K
	half := k / 2
	n := k * half * cfg.HostsPerEdge
	nodes := k*half*2 + half*half + n
	links := 2*k*half*half + n
	ft := &FatTree{
		Topology: &Topology{
			Nodes:  make([]Node, 0, nodes),
			Links:  make([]Link, 0, links),
			adj:    make([][]LinkID, 0, nodes),
			byPair: make(map[linkKey]LinkID, links),
		},
		Cfg:      cfg,
		edge:     make([][]NodeID, k),
		agg:      make([][]NodeID, k),
		core:     make([]NodeID, half*half),
		hosts:    make([]NodeID, 0, n),
		hostEdge: make([]NodeID, 0, n),
		hostLink: make([]LinkID, 0, n),
	}
	for pod := 0; pod < k; pod++ {
		ft.edge[pod] = make([]NodeID, half)
		for j := 0; j < half; j++ {
			ft.edge[pod][j] = ft.AddNode(KindEdge, pod, j)
		}
	}
	for pod := 0; pod < k; pod++ {
		ft.agg[pod] = make([]NodeID, half)
		for j := 0; j < half; j++ {
			ft.agg[pod][j] = ft.AddNode(KindAgg, pod, j)
		}
	}
	for j := range ft.core {
		ft.core[j] = ft.AddNode(KindCore, -1, j)
	}

	// Edge <-> aggregation: complete bipartite graph within each pod.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				if _, err := ft.AddLink(ft.edge[pod][e], ft.agg[pod][a], cfg.LinkCapacity); err != nil {
					return nil, err
				}
			}
		}
	}

	// Aggregation <-> core, in the order coreIndexOfAgg defines.
	for pod := 0; pod < k; pod++ {
		for s := 0; s < half; s++ {
			for t := 0; t < half; t++ {
				if _, err := ft.AddLink(ft.agg[pod][s], ft.core[ft.coreIndexOfAgg(pod, s, t)], cfg.LinkCapacity); err != nil {
					return nil, err
				}
			}
		}
	}

	// Hosts.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for h := 0; h < cfg.HostsPerEdge; h++ {
				id := ft.AddNode(KindHost, pod, len(ft.hosts))
				ft.hosts = append(ft.hosts, id)
				ft.hostEdge = append(ft.hostEdge, ft.edge[pod][e])
				l, err := ft.AddLink(id, ft.edge[pod][e], cfg.HostCapacity)
				if err != nil {
					return nil, err
				}
				ft.hostLink = append(ft.hostLink, l)
			}
		}
	}
	return ft, nil
}

// PathStore returns the topology's shared interned path store, creating it
// on first use. The store is safe for concurrent use; all callers of one
// FatTree see the same instance, so interned pairs are built at most once.
func (ft *FatTree) PathStore() *PathStore {
	if ps := ft.store.Load(); ps != nil {
		return ps
	}
	ps := NewPathStore(ft)
	if !ft.store.CompareAndSwap(nil, ps) {
		return ft.store.Load()
	}
	return ps
}

// K returns the fat-tree parameter.
func (ft *FatTree) K() int { return ft.Cfg.K }

// Edge returns E_{pod,j}.
func (ft *FatTree) Edge(pod, j int) NodeID { return ft.edge[pod][j] }

// Agg returns A_{pod,j}.
func (ft *FatTree) Agg(pod, j int) NodeID { return ft.agg[pod][j] }

// Core returns C_j.
func (ft *FatTree) Core(j int) NodeID { return ft.core[j] }

// Host returns H_j by global host index.
func (ft *FatTree) Host(j int) NodeID { return ft.hosts[j] }

// NumHosts returns the number of hosts.
func (ft *FatTree) NumHosts() int { return len(ft.hosts) }

// EdgeOfHost returns the edge switch the host with global index j attaches to.
func (ft *FatTree) EdgeOfHost(j int) NodeID { return ft.hostEdge[j] }

// HostsOfEdge returns the global indices of hosts under E_{pod,j}.
func (ft *FatTree) HostsOfEdge(pod, j int) []int {
	per := ft.Cfg.HostsPerEdge
	base := (pod*(ft.Cfg.K/2) + j) * per
	out := make([]int, per)
	for i := range out {
		out[i] = base + i
	}
	return out
}

// typeB reports whether the pod uses F10's transposed (type-B) wiring.
func (ft *FatTree) typeB(pod int) bool { return ft.Cfg.AB && pod%2 == 1 }

// coreIndexOfAgg is the aggregation-to-core wiring rule: the global index of
// the t-th core A_{pod,s} connects to. Canonical wiring: A_{i,s} connects to
// cores [s*k/2, (s+1)*k/2). AB wiring flips odd pods to the transposed
// pattern: A_{i,s} connects to cores {t*k/2 + s : t}, so core C_{x*k/2+y}
// reaches agg x in type-A pods and agg y in type-B pods.
func (ft *FatTree) coreIndexOfAgg(pod, s, t int) int {
	half := ft.Cfg.K / 2
	if ft.typeB(pod) {
		return t*half + s
	}
	return s*half + t
}

// aggIndexOfCore is the inverse rule: which aggregation switch of the pod
// core C_c connects to.
func (ft *FatTree) aggIndexOfCore(c, pod int) int {
	half := ft.Cfg.K / 2
	if ft.typeB(pod) {
		return c % half
	}
	return c / half
}

// coreSlotOfAgg inverts coreIndexOfAgg's t: core C_c is the t-th core of
// the aggregation switch of pod it connects to (aggIndexOfCore).
func (ft *FatTree) coreSlotOfAgg(pod, c int) int {
	half := ft.Cfg.K / 2
	if ft.typeB(pod) {
		return c / half
	}
	return c % half
}

// edgeAggLink is the link joining E_{pod,e} and A_{pod,a}, by NewFatTree's
// link order.
func (ft *FatTree) edgeAggLink(pod, e, a int) LinkID {
	half := ft.Cfg.K / 2
	return LinkID((pod*half+e)*half + a)
}

// aggCoreLink is the link joining A_{pod,s} and its t-th core,
// C_{coreIndexOfAgg(pod, s, t)}, by NewFatTree's link order: it follows
// all k·(k/2)² edge↔aggregation links.
func (ft *FatTree) aggCoreLink(pod, s, t int) LinkID {
	k, half := ft.Cfg.K, ft.Cfg.K/2
	return LinkID(k*half*half + (pod*half+s)*half + t)
}

// CoreIndicesOfAgg returns the global core indices A_{pod,s} connects to.
func (ft *FatTree) CoreIndicesOfAgg(pod, s int) []int {
	out := make([]int, ft.Cfg.K/2)
	for t := range out {
		out[t] = ft.coreIndexOfAgg(pod, s, t)
	}
	return out
}

// AggOfCoreInPod returns the aggregation switch core C_c connects to in the
// given pod.
func (ft *FatTree) AggOfCoreInPod(c, pod int) NodeID {
	return ft.agg[pod][ft.aggIndexOfCore(c, pod)]
}
