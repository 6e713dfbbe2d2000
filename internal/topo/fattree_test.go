package topo

import (
	"math"
	"testing"
)

func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{4, 6, 8, 16} {
		ft, err := NewFatTree(Config{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		half := k / 2
		wantEdges := k * half
		wantAggs := k * half
		wantCores := half * half
		wantHosts := k * half * half
		if got := len(ft.NodesOfKind(KindEdge)); got != wantEdges {
			t.Errorf("k=%d: edge switches = %d, want %d", k, got, wantEdges)
		}
		if got := len(ft.NodesOfKind(KindAgg)); got != wantAggs {
			t.Errorf("k=%d: agg switches = %d, want %d", k, got, wantAggs)
		}
		if got := len(ft.NodesOfKind(KindCore)); got != wantCores {
			t.Errorf("k=%d: cores = %d, want %d", k, got, wantCores)
		}
		if got := ft.NumHosts(); got != wantHosts {
			t.Errorf("k=%d: hosts = %d, want %d (k^3/4)", k, got, wantHosts)
		}
		// Switch-switch links: edge-agg k*(k/2)^2 plus agg-core k*(k/2)^2,
		// i.e. k^3/2 total (the cable count in Table 2's fat-tree row).
		if got, want := len(ft.SwitchLinkIDs()), k*k*k/2; got != want {
			t.Errorf("k=%d: switch links = %d, want %d (k^3/2)", k, got, want)
		}
	}
}

func TestFatTreeDegrees(t *testing.T) {
	ft, err := NewFatTree(Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	k := 8
	for _, n := range ft.Nodes {
		var want int
		switch n.Kind {
		case KindEdge, KindAgg:
			want = k // k/2 down + k/2 up
		case KindCore:
			want = k // one per pod
		case KindHost:
			want = 1
		}
		if got := ft.Degree(n.ID); got != want {
			t.Errorf("%s: degree = %d, want %d", n.Name(), got, want)
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	ft, err := NewFatTree(Config{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	half := 3
	// Every edge switch connects to every agg switch in its pod and to no
	// switch outside it.
	for pod := 0; pod < 6; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				if ft.LinkBetween(ft.Edge(pod, e), ft.Agg(pod, a)) == NoLink {
					t.Errorf("E%d,%d not linked to A%d,%d", pod, e, pod, a)
				}
			}
			other := (pod + 1) % 6
			if ft.LinkBetween(ft.Edge(pod, e), ft.Agg(other, 0)) != NoLink {
				t.Errorf("E%d,%d linked to a foreign pod's agg", pod, e)
			}
		}
	}
	// A_{i,s} connects exactly to cores [s*k/2, (s+1)*k/2).
	for pod := 0; pod < 6; pod++ {
		for s := 0; s < half; s++ {
			for c := 0; c < len(ft.NodesOfKind(KindCore)); c++ {
				linked := ft.LinkBetween(ft.Agg(pod, s), ft.Core(c)) != NoLink
				want := c/half == s
				if linked != want {
					t.Errorf("A%d,%d <-> C%d: linked=%v, want %v", pod, s, c, linked, want)
				}
			}
		}
	}
	// AggOfCoreInPod agrees with the link structure.
	for c := 0; c < len(ft.NodesOfKind(KindCore)); c++ {
		for pod := 0; pod < 6; pod++ {
			a := ft.AggOfCoreInPod(c, pod)
			if ft.LinkBetween(a, ft.Core(c)) == NoLink {
				t.Errorf("AggOfCoreInPod(%d, %d) = %s has no link to C%d", c, pod, ft.Node(a).Name(), c)
			}
		}
	}
}

func TestFatTreeHostsOfEdge(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for pod := 0; pod < 4; pod++ {
		for j := 0; j < 2; j++ {
			for _, h := range ft.HostsOfEdge(pod, j) {
				if seen[h] {
					t.Errorf("host %d listed under two edges", h)
				}
				seen[h] = true
				if ft.EdgeOfHost(h) != ft.Edge(pod, j) {
					t.Errorf("EdgeOfHost(%d) != E%d,%d", h, pod, j)
				}
				if ft.LinkBetween(ft.Host(h), ft.Edge(pod, j)) == NoLink {
					t.Errorf("host %d has no link to its edge switch", h)
				}
			}
		}
	}
	if len(seen) != ft.NumHosts() {
		t.Errorf("HostsOfEdge covered %d hosts, want %d", len(seen), ft.NumHosts())
	}
}

func TestFatTreeRackLevelConfig(t *testing.T) {
	// The paper's failure-study configuration: rack-level endpoints with
	// 10:1 oversubscription at the edge.
	k := 8
	over := 10.0
	hostCap := over * float64(k/2)
	ft, err := NewFatTree(Config{K: k, HostsPerEdge: 1, HostCapacity: hostCap})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ft.NumHosts(), k*k/2; got != want {
		t.Fatalf("rack endpoints = %d, want %d (one per edge switch)", got, want)
	}
	h0 := ft.Host(0)
	l := ft.Link(ft.LinksOf(h0)[0])
	if l.Capacity != hostCap {
		t.Errorf("rack access capacity = %v, want %v", l.Capacity, hostCap)
	}
	// Uplink capacity of an edge switch is (k/2) * 1; the access link is
	// 10x that, i.e. the edge is 10:1 oversubscribed.
	if got := l.Capacity / (float64(k / 2)); got != over {
		t.Errorf("oversubscription = %v, want %v", got, over)
	}
}

func TestABFatTreeWiring(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4, AB: true})
	if err != nil {
		t.Fatal(err)
	}
	half := 2
	// Type A (even) pods use canonical wiring, type B (odd) pods the
	// transposed pattern; every core still has exactly one link per pod.
	for c := 0; c < len(ft.NodesOfKind(KindCore)); c++ {
		x, y := c/half, c%half
		for pod := 0; pod < 4; pod++ {
			wantAgg := x
			if pod%2 == 1 {
				wantAgg = y
			}
			for s := 0; s < half; s++ {
				linked := ft.LinkBetween(ft.Agg(pod, s), ft.Core(c)) != NoLink
				if linked != (s == wantAgg) {
					t.Errorf("AB pod %d: A%d,%d <-> C%d linked=%v, want %v", pod, pod, s, c, linked, s == wantAgg)
				}
			}
		}
		if got := ft.Degree(ft.Core(c)); got != 4 {
			t.Errorf("AB core C%d degree = %d, want k", c, got)
		}
	}
}

func TestFatTreeConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 3},
		{K: 0},
		{K: 5},
		{K: 4, HostsPerEdge: -1},
		{K: 4, LinkCapacity: -1},
		{K: 4, HostCapacity: -0.5},
	}
	for _, cfg := range bad {
		if _, err := NewFatTree(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

func TestFatTreeDeterministicIDs(t *testing.T) {
	a, err := NewFatTree(Config{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFatTree(Config{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) || a.NumLinks() != b.NumLinks() {
		t.Fatal("two builds differ in size")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs between builds: %+v vs %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs between builds", i)
		}
	}
}

// TestFatTreeLinkOrderContract pins NewFatTree's link order, which the path
// store resolves fabric links by instead of looking node pairs up: every
// edge–aggregation and aggregation–core link the wiring-rule helpers name is
// LinkBetween of its endpoints, the two blocks tile the first 2·k·(k/2)²
// link IDs, and coreSlotOfAgg undoes coreIndexOfAgg's t.
func TestFatTreeLinkOrderContract(t *testing.T) {
	for _, k := range []int{4, 6, 8, 16} {
		for _, ab := range []bool{false, true} {
			ft, err := NewFatTree(Config{K: k, HostsPerEdge: 2, AB: ab})
			if err != nil {
				t.Fatal(err)
			}
			half := k / 2
			next := LinkID(0)
			for pod := 0; pod < k; pod++ {
				for e := 0; e < half; e++ {
					for a := 0; a < half; a++ {
						got, want := ft.edgeAggLink(pod, e, a), ft.LinkBetween(ft.Edge(pod, e), ft.Agg(pod, a))
						if got != want || got != next {
							t.Fatalf("k=%d ab=%v: edgeAggLink(%d, %d, %d) = %d, LinkBetween says %d, link order says %d", k, ab, pod, e, a, got, want, next)
						}
						next++
					}
				}
			}
			for pod := 0; pod < k; pod++ {
				for s := 0; s < half; s++ {
					for tt := 0; tt < half; tt++ {
						c := ft.coreIndexOfAgg(pod, s, tt)
						got, want := ft.aggCoreLink(pod, s, tt), ft.LinkBetween(ft.Agg(pod, s), ft.Core(c))
						if got != want || got != next {
							t.Fatalf("k=%d ab=%v: aggCoreLink(%d, %d, %d) = %d, LinkBetween says %d, link order says %d", k, ab, pod, s, tt, got, want, next)
						}
						if back := ft.coreSlotOfAgg(pod, c); back != tt {
							t.Fatalf("k=%d ab=%v pod %d agg %d: coreSlotOfAgg(core %d) = %d, want t=%d", k, ab, pod, s, c, back, tt)
						}
						next++
					}
				}
			}
			for j := 0; j < ft.NumHosts(); j++ {
				if got := ft.hostLink[j]; got != next {
					t.Fatalf("k=%d ab=%v: host %d's access link is %d, link order says %d", k, ab, j, got, next)
				}
				next++
			}
		}
	}
}

// TestNonFiniteCapacityRejected: a capacity must be positive and finite
// wherever one enters a topology. NaN slips past every "<= 0" check, and the
// fluid engine reserves +Inf as a sentinel.
func TestNonFiniteCapacityRejected(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var g Topology
		a, b := g.AddNode(KindEdge, 0, 0), g.AddNode(KindAgg, 0, 0)
		if _, err := g.AddLink(a, b, c); err == nil {
			t.Errorf("AddLink accepted capacity %v", c)
		}
		for _, cfg := range []Config{{K: 4, LinkCapacity: c}, {K: 4, HostCapacity: c}} {
			if _, err := NewFatTree(cfg); err == nil {
				t.Errorf("NewFatTree accepted %+v", cfg)
			}
		}
		for _, cfg := range []JellyfishConfig{
			{Switches: 10, Ports: 6, NetDegree: 3, LinkCapacity: c},
			{Switches: 10, Ports: 6, NetDegree: 3, HostCapacity: c},
		} {
			if _, err := NewJellyfish(cfg); err == nil {
				t.Errorf("NewJellyfish accepted %+v", cfg)
			}
		}
	}
}
