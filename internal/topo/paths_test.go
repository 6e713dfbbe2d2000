package topo

import "testing"

func TestECMPPathCounts(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 2 hosts per edge, 2 edges per pod, 4 hosts per pod.
	cases := []struct {
		src, dst  int
		wantPaths int
		wantHops  int
	}{
		{0, 1, 1, 2},  // same edge
		{0, 2, 2, 4},  // same pod, different edge: k/2 agg choices
		{0, 4, 4, 6},  // different pod: (k/2)^2 core choices
		{1, 15, 4, 6}, // different pod, far corner
	}
	for _, c := range cases {
		paths, err := ft.ECMPPaths(c.src, c.dst)
		if err != nil {
			t.Fatalf("ECMPPaths(%d, %d): %v", c.src, c.dst, err)
		}
		if len(paths) != c.wantPaths {
			t.Errorf("ECMPPaths(%d, %d): %d paths, want %d", c.src, c.dst, len(paths), c.wantPaths)
		}
		for _, p := range paths {
			if p.Hops() != c.wantHops {
				t.Errorf("ECMPPaths(%d, %d): path with %d hops, want %d", c.src, c.dst, p.Hops(), c.wantHops)
			}
			if p.Nodes[0] != ft.Host(c.src) || p.Nodes[len(p.Nodes)-1] != ft.Host(c.dst) {
				t.Errorf("ECMPPaths(%d, %d): path endpoints wrong", c.src, c.dst)
			}
		}
	}
}

func TestECMPPathsDistinct(t *testing.T) {
	ft, err := NewFatTree(Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ft.ECMPPaths(0, ft.NumHosts()-1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16; len(paths) != want { // (k/2)^2
		t.Fatalf("paths = %d, want %d", len(paths), want)
	}
	// All inter-pod paths must route through distinct cores.
	cores := make(map[NodeID]bool)
	for _, p := range paths {
		var core NodeID = None
		for _, n := range p.Nodes {
			if ft.Node(n).Kind == KindCore {
				core = n
			}
		}
		if core == None {
			t.Fatal("inter-pod path without a core hop")
		}
		if cores[core] {
			t.Errorf("core %s appears on two ECMP paths", ft.Node(core).Name())
		}
		cores[core] = true
	}
}

func TestECMPPathsErrors(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ft.ECMPPaths(0, 0); err == nil {
		t.Error("same-host path accepted")
	}
	if _, err := ft.ECMPPaths(-1, 3); err == nil {
		t.Error("negative host index accepted")
	}
	if _, err := ft.ECMPPaths(0, ft.NumHosts()); err == nil {
		t.Error("out-of-range host index accepted")
	}
}

func TestECMPPathsABFatTree(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4, AB: true})
	if err != nil {
		t.Fatal(err)
	}
	// The AB wiring must still provide (k/2)^2 valid 6-hop inter-pod paths.
	for _, dst := range []int{4, 8, 12} {
		paths, err := ft.ECMPPaths(0, dst)
		if err != nil {
			t.Fatalf("ECMPPaths(0, %d): %v", dst, err)
		}
		if len(paths) != 4 {
			t.Errorf("AB ECMPPaths(0, %d) = %d paths, want 4", dst, len(paths))
		}
		for _, p := range paths {
			if p.Hops() != 6 {
				t.Errorf("AB inter-pod path hops = %d, want 6", p.Hops())
			}
		}
	}
}

func TestShortestPathBasics(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ft.Host(0), ft.Host(15)
	p, ok := ft.ShortestPath(src, dst, nil)
	if !ok {
		t.Fatal("no path found in a healthy fat-tree")
	}
	if p.Hops() != 6 {
		t.Errorf("shortest inter-pod path = %d hops, want 6", p.Hops())
	}
	if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
		t.Error("path endpoints wrong")
	}
	// Links must actually join consecutive nodes.
	for i, lid := range p.Links {
		l := ft.Link(lid)
		if !(l.A == p.Nodes[i] && l.B == p.Nodes[i+1]) && !(l.B == p.Nodes[i] && l.A == p.Nodes[i+1]) {
			t.Errorf("link %d does not join nodes %d and %d", lid, p.Nodes[i], p.Nodes[i+1])
		}
	}
	same, ok := ft.ShortestPath(src, src, nil)
	if !ok || same.Hops() != 0 {
		t.Error("path to self should be the trivial path")
	}
}

func TestShortestPathAvoidsBlocked(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ft.Host(0), ft.Host(4) // pods 0 and 1

	// Block every core except C0: paths must use C0.
	b := NewBlocked()
	for c := 1; c < len(ft.NodesOfKind(KindCore)); c++ {
		b.BlockNode(ft.Core(c))
	}
	p, ok := ft.ShortestPath(src, dst, b)
	if !ok {
		t.Fatal("unreachable with one core alive")
	}
	if !p.Contains(ft.Core(0)) {
		t.Error("path does not use the only live core")
	}

	// Block all cores: inter-pod traffic is cut.
	b.BlockNode(ft.Core(0))
	if _, ok := ft.ShortestPath(src, dst, b); ok {
		t.Error("path found with all cores dead")
	}
	if ft.Connected(src, dst, b) {
		t.Error("Connected=true with all cores dead")
	}

	// Intra-pod traffic still flows.
	if !ft.Connected(src, ft.Host(2), b) {
		t.Error("intra-pod traffic should survive core failures")
	}
}

func TestShortestPathBlockedLink(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ft.Host(0), ft.Host(1) // same edge
	b := NewBlocked()
	b.BlockLink(ft.LinksOf(src)[0]) // cut the host's access link
	if _, ok := ft.ShortestPath(src, dst, b); ok {
		t.Error("path found across a blocked access link")
	}
	// Blocking an endpoint makes everything unreachable.
	b2 := NewBlocked()
	b2.BlockNode(src)
	if _, ok := ft.ShortestPath(src, dst, b2); ok {
		t.Error("path found from a blocked endpoint")
	}
}

func TestBlockedPathOK(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ft.ECMPPaths(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	if !(*Blocked)(nil).PathOK(p) {
		t.Error("nil Blocked should allow all paths")
	}
	b := NewBlocked()
	if !b.PathOK(p) {
		t.Error("empty Blocked rejected a path")
	}
	b.BlockNode(p.Nodes[2])
	if b.PathOK(p) {
		t.Error("path through a blocked node accepted")
	}
	b2 := NewBlocked()
	b2.BlockLink(p.Links[1])
	if b2.PathOK(p) {
		t.Error("path through a blocked link accepted")
	}
}

func TestPathHelpers(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ft.ECMPPaths(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	if !p.Contains(p.Nodes[3]) {
		t.Error("Contains missed an on-path node")
	}
	if p.Contains(ft.Host(7)) {
		t.Error("Contains matched an off-path node")
	}
	if !p.ContainsLink(p.Links[0]) {
		t.Error("ContainsLink missed an on-path link")
	}
	clone := p.Clone()
	clone.Nodes[0] = None
	clone.Links[0] = NoLink
	if p.Nodes[0] == None || p.Links[0] == NoLink {
		t.Error("Clone shares backing arrays with the original")
	}
}
