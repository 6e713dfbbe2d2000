package topo

import "testing"

func TestAddLinkErrors(t *testing.T) {
	var g Topology
	a := g.AddNode(KindEdge, 0, 0)
	b := g.AddNode(KindAgg, 0, 0)

	if _, err := g.AddLink(a, a, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddLink(a, 99, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := g.AddLink(a, b, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := g.AddLink(a, b, -2); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := g.AddLink(a, b, 1); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if _, err := g.AddLink(b, a, 1); err == nil {
		t.Error("duplicate link (reversed order) accepted")
	}
}

func TestLinkBetweenAndOther(t *testing.T) {
	var g Topology
	a := g.AddNode(KindEdge, 0, 0)
	b := g.AddNode(KindAgg, 0, 0)
	c := g.AddNode(KindCore, -1, 0)
	ab, err := g.AddLink(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.LinkBetween(a, b); got != ab {
		t.Errorf("LinkBetween(a,b) = %d, want %d", got, ab)
	}
	if got := g.LinkBetween(b, a); got != ab {
		t.Errorf("LinkBetween(b,a) = %d, want %d", got, ab)
	}
	if got := g.LinkBetween(a, c); got != NoLink {
		t.Errorf("LinkBetween(a,c) = %d, want NoLink", got)
	}
	if got := g.LinkBetween(a, 1000); got != NoLink {
		t.Errorf("LinkBetween out of range = %d, want NoLink", got)
	}
	l := g.Link(ab)
	if l.Other(a) != b || l.Other(b) != a {
		t.Error("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	l.Other(c)
}

func TestNeighborsAndDegree(t *testing.T) {
	var g Topology
	a := g.AddNode(KindEdge, 0, 0)
	b := g.AddNode(KindAgg, 0, 0)
	c := g.AddNode(KindAgg, 0, 1)
	mustLink(t, &g, a, b)
	mustLink(t, &g, a, c)
	if g.Degree(a) != 2 || g.Degree(b) != 1 {
		t.Errorf("degrees = %d, %d; want 2, 1", g.Degree(a), g.Degree(b))
	}
	var nbrs []NodeID
	for _, lid := range g.LinksOf(a) {
		nbrs = append(nbrs, g.Link(lid).Other(a))
	}
	if len(nbrs) != 2 {
		t.Fatalf("neighbors of a = %v, want 2 entries", nbrs)
	}
	seen := map[NodeID]bool{nbrs[0]: true, nbrs[1]: true}
	if !seen[b] || !seen[c] {
		t.Errorf("neighbors of a = %v, want {b, c}", nbrs)
	}
}

func TestNodesOfKindAndSwitchIDs(t *testing.T) {
	var g Topology
	e := g.AddNode(KindEdge, 0, 0)
	h := g.AddNode(KindHost, 0, 0)
	a := g.AddNode(KindAgg, 0, 0)
	mustLink(t, &g, h, e)
	mustLink(t, &g, e, a)

	if got := g.NodesOfKind(KindHost); len(got) != 1 || got[0] != h {
		t.Errorf("NodesOfKind(host) = %v", got)
	}
	sw := g.SwitchIDs()
	if len(sw) != 2 {
		t.Fatalf("SwitchIDs = %v, want 2 switches", sw)
	}
	sl := g.SwitchLinkIDs()
	if len(sl) != 1 {
		t.Fatalf("SwitchLinkIDs = %v, want exactly the edge-agg link", sl)
	}
	if l := g.Link(sl[0]); l.A != e && l.B != e {
		t.Errorf("switch link %v does not touch the edge switch", l)
	}
}

func TestKindHelpers(t *testing.T) {
	cases := []struct {
		k    Kind
		str  string
		swch bool
	}{
		{KindHost, "host", false},
		{KindEdge, "edge", true},
		{KindAgg, "agg", true},
		{KindCore, "core", true},
	}
	for _, c := range cases {
		if c.k.String() != c.str {
			t.Errorf("%v.String() = %q, want %q", c.k, c.k.String(), c.str)
		}
		if c.k.IsSwitch() != c.swch {
			t.Errorf("%v.IsSwitch() = %v, want %v", c.k, c.k.IsSwitch(), c.swch)
		}
	}
}

func TestNodeName(t *testing.T) {
	cases := []struct {
		n    Node
		want string
	}{
		{Node{Kind: KindHost, Index: 7}, "H7"},
		{Node{Kind: KindEdge, Pod: 1, Index: 0}, "E1,0"},
		{Node{Kind: KindAgg, Pod: 3, Index: 2}, "A3,2"},
		{Node{Kind: KindCore, Index: 5}, "C5"},
	}
	for _, c := range cases {
		if got := c.n.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func mustLink(t *testing.T, g *Topology, a, b NodeID) LinkID {
	t.Helper()
	id, err := g.AddLink(a, b, 1)
	if err != nil {
		t.Fatalf("AddLink(%d, %d): %v", a, b, err)
	}
	return id
}
