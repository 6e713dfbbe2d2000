// Package groups generalizes ShareBackup's failure-group planning beyond the
// fat-tree, following the paper's conclusion: "Sharable backup is readily
// applicable to [symmetric] networks, with different plans for partitioning
// failure groups. Non-uniform failure groups should also be explored ... so
// we can have more backup on critical devices and less backup on unimportant
// ones."
//
// A Plan partitions a topology's switches into groups that can physically
// share backups (same port count, wired to a common set of circuit switches)
// and assigns each group a backup budget. The package provides the fat-tree
// plan the paper builds, a degree-homogeneous plan for unstructured networks
// such as Jellyfish, and the analytics (overflow probability, hardware
// overhead, coverage criticality) to compare plans.
package groups

import (
	"fmt"
	"sort"

	"sharebackup/internal/failure"
	"sharebackup/internal/topo"
)

// Group is one failure group of a plan.
type Group struct {
	// Members are the switches sharing this group's backups.
	Members []topo.NodeID
	// Backups is the group's backup budget (the paper's n).
	Backups int
	// Ports is the member port count; every member and backup must match
	// so they can wire to the same circuit switches.
	Ports int
}

// Size returns the number of member switches.
func (g *Group) Size() int { return len(g.Members) }

// CircuitPortsNeeded returns the per-side port count of the group's circuit
// switches: size + backups + 2 side ports (Section 3).
func (g *Group) CircuitPortsNeeded() int { return g.Size() + g.Backups + 2 }

// OverflowProbability returns P[more than Backups members down] under
// independent failures with per-switch unavailability p.
func (g *Group) OverflowProbability(p float64) float64 {
	return failure.BinomialTail(g.Size(), g.Backups, p)
}

// Plan is a failure-group partition of a topology's switches.
type Plan struct {
	Groups []Group
}

// TotalBackups sums the backup budgets.
func (p *Plan) TotalBackups() int {
	n := 0
	for i := range p.Groups {
		n += p.Groups[i].Backups
	}
	return n
}

// TotalSwitches sums the member counts.
func (p *Plan) TotalSwitches() int {
	n := 0
	for i := range p.Groups {
		n += p.Groups[i].Size()
	}
	return n
}

// BackupRatio returns total backups over total switches.
func (p *Plan) BackupRatio() float64 {
	s := p.TotalSwitches()
	if s == 0 {
		return 0
	}
	return float64(p.TotalBackups()) / float64(s)
}

// ExpectedUnprotectedFailures returns the expected number of groups whose
// concurrent failures exceed their budget, under unavailability p — the
// plan-level robustness metric used to compare allocations.
func (p *Plan) ExpectedUnprotectedFailures(unavail float64) float64 {
	sum := 0.0
	for i := range p.Groups {
		sum += p.Groups[i].OverflowProbability(unavail)
	}
	return sum
}

// Validate checks the plan is a partition with homogeneous port counts.
func (p *Plan) Validate(t *topo.Topology) error {
	seen := make(map[topo.NodeID]bool)
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.Size() == 0 {
			return fmt.Errorf("groups: group %d is empty", gi)
		}
		if g.Backups < 0 {
			return fmt.Errorf("groups: group %d has negative backups", gi)
		}
		for _, m := range g.Members {
			if !t.Node(m).Kind.IsSwitch() {
				return fmt.Errorf("groups: group %d member %d is not a switch", gi, m)
			}
			if seen[m] {
				return fmt.Errorf("groups: switch %d in two groups", m)
			}
			seen[m] = true
			if d := t.Degree(m); d != g.Ports {
				return fmt.Errorf("groups: group %d member %d has %d ports, group declares %d",
					gi, m, d, g.Ports)
			}
		}
	}
	for _, id := range t.SwitchIDs() {
		if !seen[id] {
			return fmt.Errorf("groups: switch %d not covered by the plan", id)
		}
	}
	return nil
}

// FatTreePlan builds the paper's plan for a fat-tree: k edge groups, k agg
// groups, and k/2 core groups of k/2 switches each, n backups per group.
func FatTreePlan(ft *topo.FatTree, n int) (*Plan, error) {
	if n < 0 {
		return nil, fmt.Errorf("groups: n=%d must be non-negative", n)
	}
	k := ft.K()
	half := k / 2
	var plan Plan
	for pod := 0; pod < k; pod++ {
		g := Group{Backups: n, Ports: k}
		for j := 0; j < half; j++ {
			g.Members = append(g.Members, ft.Edge(pod, j))
		}
		plan.Groups = append(plan.Groups, g)
	}
	for pod := 0; pod < k; pod++ {
		g := Group{Backups: n, Ports: k}
		for j := 0; j < half; j++ {
			g.Members = append(g.Members, ft.Agg(pod, j))
		}
		plan.Groups = append(plan.Groups, g)
	}
	for t := 0; t < half; t++ {
		g := Group{Backups: n, Ports: k}
		for s := 0; s < half; s++ {
			g.Members = append(g.Members, ft.Core(s*half+t))
		}
		plan.Groups = append(plan.Groups, g)
	}
	return &plan, nil
}

// ByDegreePlan partitions an arbitrary topology's switches into groups of at
// most maxSize switches with identical port counts (a physical requirement:
// group members share circuit switches port-for-port), assigning n backups
// per group. This is the uniform plan for unstructured networks.
func ByDegreePlan(t *topo.Topology, maxSize, n int) (*Plan, error) {
	if maxSize < 1 {
		return nil, fmt.Errorf("groups: maxSize=%d must be positive", maxSize)
	}
	if n < 0 {
		return nil, fmt.Errorf("groups: n=%d must be non-negative", n)
	}
	byDegree := make(map[int][]topo.NodeID)
	for _, id := range t.SwitchIDs() {
		d := t.Degree(id)
		byDegree[d] = append(byDegree[d], id)
	}
	degrees := make([]int, 0, len(byDegree))
	for d := range byDegree {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	var plan Plan
	for _, d := range degrees {
		members := byDegree[d]
		for start := 0; start < len(members); start += maxSize {
			end := start + maxSize
			if end > len(members) {
				end = len(members)
			}
			plan.Groups = append(plan.Groups, Group{
				Members: append([]topo.NodeID(nil), members[start:end]...),
				Backups: n,
				Ports:   d,
			})
		}
	}
	return &plan, nil
}

// CoverageCriticality scores a switch's importance (the paper's non-uniform
// direction: "more backup on critical devices") by how many hosts lose all
// connectivity if it dies: the size of the host set whose only switch
// neighbor it is. Single-homed racks make their edge switch maximally
// critical.
func CoverageCriticality(t *topo.Topology, sw topo.NodeID) float64 {
	cut := 0
	for _, lid := range t.LinksOf(sw) {
		h := t.Link(lid).Other(sw)
		if t.Node(h).Kind != topo.KindHost {
			continue
		}
		if t.Degree(h) == 1 {
			cut++
		}
	}
	return float64(cut) + 1 // +1 so fabric switches are not zero
}
