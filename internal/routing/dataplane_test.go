package routing

import (
	"fmt"

	"sharebackup/internal/topo"
)

// dataPlane forwards packets hop by hop over a logical fat-tree using the
// two-level tables: the tests' oracle that the VLAN-combined failure-group
// tables of Section 4.3 deliver every pair on a shortest path, on wirings
// (F10's AB fat-tree, one-host racks) that internal/emu's physical
// ShareBackup network never builds.
type dataPlane struct {
	ft   *topo.FatTree
	agg  []Table      // per pod (shared by the pod's agg switches)
	core Table        // shared by all core switches
	vlan []*VLANTable // per pod (shared by the pod's edge switches)
}

// newDataPlane builds forwarding state for ft. The fat-tree must have at
// most k/2 hosts per edge so every host is addressable.
func newDataPlane(ft *topo.FatTree) (*dataPlane, error) {
	k := ft.K()
	if ft.Cfg.HostsPerEdge > k/2 {
		return nil, fmt.Errorf("routing: %d hosts per edge not addressable (max k/2 = %d)", ft.Cfg.HostsPerEdge, k/2)
	}
	dp := &dataPlane{ft: ft}
	core, err := BuildCoreTable(k)
	if err != nil {
		return nil, err
	}
	dp.core = core
	for pod := 0; pod < k; pod++ {
		at, err := BuildAggTable(k, pod)
		if err != nil {
			return nil, err
		}
		dp.agg = append(dp.agg, at)
		vt, err := BuildVLANTable(k, pod)
		if err != nil {
			return nil, err
		}
		dp.vlan = append(dp.vlan, vt)
	}
	return dp, nil
}

// deliver forwards a packet from srcHost to dstHost hop by hop through the
// routing tables and returns the node walk taken (starting at the source
// host, ending at the destination host). It exercises exactly the lookups a
// real switch would perform: the source host tags the packet with its edge
// switch's VLAN ID; edge switches use the combined table; aggregation and
// core switches use their shared tables.
func (dp *dataPlane) deliver(srcHost, dstHost int) ([]topo.NodeID, error) {
	ft := dp.ft
	half := ft.K() / 2
	dstEdge := ft.Node(ft.EdgeOfHost(dstHost))
	dst, err := HostAddr(ft.K(), dstEdge.Pod, dstEdge.Index, dstHost%ft.Cfg.HostsPerEdge)
	if err != nil {
		return nil, err
	}
	srcEdge := ft.Node(ft.EdgeOfHost(srcHost))
	vlan := srcEdge.Index

	walk := []topo.NodeID{ft.Host(srcHost)}
	cur := srcEdge.ID
	tagged := true
	const maxHops = 10
	for hop := 0; hop < maxHops; hop++ {
		walk = append(walk, cur)
		node := ft.Node(cur)
		switch node.Kind {
		case topo.KindEdge:
			v := Untagged
			if tagged {
				v = vlan
			}
			port, ok := dp.vlan[node.Pod].Lookup(v, dst)
			if !ok {
				return walk, fmt.Errorf("routing: %s: no route to %v (vlan %d)", node.Name(), dst, v)
			}
			if int(port) < half {
				// Host port: delivery.
				hostIdx := (node.Pod*half+node.Index)*ft.Cfg.HostsPerEdge + int(port)
				if int(port) >= ft.Cfg.HostsPerEdge {
					return walk, fmt.Errorf("routing: %s: delivery to unpopulated host port %d", node.Name(), port)
				}
				walk = append(walk, ft.Host(hostIdx))
				if hostIdx != dstHost {
					return walk, fmt.Errorf("routing: delivered to host %d, want %d", hostIdx, dstHost)
				}
				return walk, nil
			}
			cur = ft.Agg(node.Pod, int(port)-half)
			tagged = false // aggregation switches strip the tag
		case topo.KindAgg:
			port, ok := dp.agg[node.Pod].Lookup(dst)
			if !ok {
				return walk, fmt.Errorf("routing: %s: no route to %v", node.Name(), dst)
			}
			if int(port) < half {
				cur = ft.Edge(node.Pod, int(port))
			} else {
				cur = ft.Core(ft.CoreIndicesOfAgg(node.Pod, node.Index)[int(port)-half])
			}
		case topo.KindCore:
			port, ok := dp.core.Lookup(dst)
			if !ok {
				return walk, fmt.Errorf("routing: %s: no route to %v", node.Name(), dst)
			}
			cur = ft.AggOfCoreInPod(node.Index, int(port))
		default:
			return walk, fmt.Errorf("routing: packet stranded at %s", node.Name())
		}
	}
	return walk, fmt.Errorf("routing: packet looped beyond %d hops", maxHops)
}
