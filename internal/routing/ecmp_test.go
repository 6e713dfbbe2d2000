package routing

import (
	"testing"

	"sharebackup/internal/topo"
)

func newFT(t *testing.T, k int) *topo.FatTree {
	t.Helper()
	ft, err := topo.NewFatTree(topo.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestECMPDeterministicAndSpreading(t *testing.T) {
	ft := newFT(t, 8)
	e := &ECMP{FT: ft, Seed: 1}
	src, dst := 0, ft.NumHosts()-1
	p1, err := e.PathFor(src, dst, 42)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.PathFor(src, dst, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Links {
		if p1.Links[i] != p2.Links[i] {
			t.Fatal("ECMP not deterministic for the same flow ID")
		}
	}
	// Different flow IDs must spread over multiple paths.
	seen := make(map[topo.NodeID]bool)
	for id := uint64(0); id < 64; id++ {
		p, err := e.PathFor(src, dst, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range p.Nodes {
			if ft.Node(n).Kind == topo.KindCore {
				seen[n] = true
			}
		}
	}
	if len(seen) < 8 {
		t.Errorf("64 flows hashed onto only %d cores; poor spreading", len(seen))
	}
}

func TestLinkLoad(t *testing.T) {
	ft := newFT(t, 4)
	paths, err := ft.ECMPPaths(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	ll := NewLinkLoad(ft.Topology)
	ll.Add(paths[0], 3)
	ll.Add(paths[1], 1)
	// paths[0] and paths[1] share the access link and (for k=4) the
	// edge-agg hop.
	if got := ll[paths[0].Links[0]]; got != 4 {
		t.Errorf("shared access link load = %d, want 4", got)
	}
	if got := ll.MaxOnInterior(paths[0]); got != 4 {
		t.Errorf("MaxOnInterior = %d, want 4 (shared edge-agg hop)", got)
	}
	ll.Add(paths[0], -3)
	for _, l := range paths[0].Links {
		want := 0
		if paths[1].ContainsLink(l) {
			want = 1
		}
		if ll[l] != want {
			t.Errorf("after removal link %d carries %d, want %d", l, ll[l], want)
		}
	}
}

func TestGlobalOptimalReroute(t *testing.T) {
	ft := newFT(t, 4)
	src, dst := 0, 4 // pods 0 and 1
	load := NewLinkLoad(ft.Topology)

	// Fail core C0; the reroute must avoid it and stay at 6 hops.
	blocked := topo.NewBlocked()
	blocked.BlockNode(ft.Core(0))
	p, ok := GlobalOptimalReroute(ft, src, dst, blocked, load)
	if !ok {
		t.Fatal("no surviving path")
	}
	if p.Hops() != 6 {
		t.Errorf("global-optimal reroute dilated the path: %d hops", p.Hops())
	}
	if p.Contains(ft.Core(0)) {
		t.Error("reroute still uses the failed core")
	}

	// Load sensitivity: pre-load the path through core 1; reroute should
	// prefer an empty one.
	paths, _ := ft.ECMPPaths(src, dst)
	var loaded topo.Path
	for _, q := range paths {
		if q.Contains(ft.Core(1)) {
			loaded = q
		}
	}
	load.Add(loaded, 10)
	p2, ok := GlobalOptimalReroute(ft, src, dst, blocked, load)
	if !ok {
		t.Fatal("no surviving path")
	}
	if p2.Contains(ft.Core(1)) {
		t.Error("reroute chose the congested core despite alternatives")
	}

	// Fail the destination edge switch: nothing survives.
	blocked2 := topo.NewBlocked()
	blocked2.BlockNode(ft.EdgeOfHost(dst))
	if _, ok := GlobalOptimalReroute(ft, src, dst, blocked2, load); ok {
		t.Error("reroute claimed success with the destination edge dead")
	}
}

func TestF10LocalRerouteDstPodAgg(t *testing.T) {
	ft := newFT(t, 4)
	paths, err := ft.ECMPPaths(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig := paths[0]
	// Fail the destination-pod aggregation switch on the path (node index
	// 4 of [host, edge, agg, core, agg', edge', host']).
	dstAgg := orig.Nodes[4]
	if ft.Node(dstAgg).Kind != topo.KindAgg {
		t.Fatalf("node 4 is %v, want agg", ft.Node(dstAgg).Kind)
	}
	blocked := topo.NewBlocked()
	blocked.BlockNode(dstAgg)
	p, ok := F10LocalReroute(ft, orig, blocked, nil)
	if !ok {
		t.Fatal("no local detour found")
	}
	if p.Contains(dstAgg) {
		t.Error("detour still uses the failed agg")
	}
	// Local rerouting keeps the original prefix up to the failure and
	// pays extra hops: the detour is strictly longer than the original.
	if p.Hops() <= orig.Hops() {
		t.Errorf("local detour has %d hops, original %d; F10 detours must dilate", p.Hops(), orig.Hops())
	}
	for i := 0; i < 4; i++ {
		if p.Nodes[i] != orig.Nodes[i] {
			t.Errorf("local reroute changed the path upstream of the failure at index %d", i)
		}
	}
}

func TestF10LocalRerouteLink(t *testing.T) {
	ft := newFT(t, 4)
	paths, err := ft.ECMPPaths(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig := paths[0]
	// Fail the agg'->edge' link in the destination pod (link index 4).
	blocked := topo.NewBlocked()
	blocked.BlockLink(orig.Links[4])
	p, ok := F10LocalReroute(ft, orig, blocked, nil)
	if !ok {
		t.Fatal("no local detour found")
	}
	if p.ContainsLink(orig.Links[4]) {
		t.Error("detour still uses the failed link")
	}
	if p.Hops() != orig.Hops()+2 {
		t.Errorf("detour hops = %d, want %d (+2 local bounce)", p.Hops(), orig.Hops()+2)
	}
	// Path must remain well-formed.
	for i, lid := range p.Links {
		l := ft.Link(lid)
		if !(l.A == p.Nodes[i] && l.B == p.Nodes[i+1]) && !(l.B == p.Nodes[i] && l.A == p.Nodes[i+1]) {
			t.Fatalf("spliced path malformed at hop %d", i)
		}
	}
}

func TestF10LocalRerouteCleanPath(t *testing.T) {
	ft := newFT(t, 4)
	paths, _ := ft.ECMPPaths(0, 4)
	p, ok := F10LocalReroute(ft, paths[0], topo.NewBlocked(), nil)
	if !ok {
		t.Fatal("clean path rejected")
	}
	if p.Hops() != paths[0].Hops() {
		t.Error("clean path modified")
	}
}

func TestF10LocalRerouteUnrecoverable(t *testing.T) {
	ft := newFT(t, 4)
	paths, _ := ft.ECMPPaths(0, 1) // same edge: [host, edge, host]
	blocked := topo.NewBlocked()
	blocked.BlockNode(ft.EdgeOfHost(0))
	if _, ok := F10LocalReroute(ft, paths[0], blocked, nil); ok {
		t.Error("detour claimed around a failed edge switch for its own hosts")
	}
}

func TestF10LocalRerouteSrcSideFailure(t *testing.T) {
	ft := newFT(t, 8)
	paths, err := ft.ECMPPaths(0, ft.NumHosts()-1)
	if err != nil {
		t.Fatal(err)
	}
	orig := paths[0]
	// Fail the source-side agg (node 2).
	blocked := topo.NewBlocked()
	blocked.BlockNode(orig.Nodes[2])
	p, ok := F10LocalReroute(ft, orig, blocked, nil)
	if !ok {
		t.Fatal("no detour for source-side agg failure")
	}
	if p.Contains(orig.Nodes[2]) {
		t.Error("detour uses the failed agg")
	}
	// The source edge makes a local decision; the path still starts the
	// same way.
	if p.Nodes[0] != orig.Nodes[0] || p.Nodes[1] != orig.Nodes[1] {
		t.Error("detour changed the path before the decision point")
	}
}
