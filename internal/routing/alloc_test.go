package routing

import (
	"testing"

	"sharebackup/internal/topo"
)

// TestPathForZeroAlloc enforces the hot-path contract: once a pair's paths
// are interned, PathFor is an allocation-free table lookup.
func TestPathForZeroAlloc(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 16, HostsPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := &ECMP{FT: ft, Seed: 3}
	n := ft.NumHosts()
	// Warm: intern every pair the measurement loop touches.
	for d := 1; d < n; d++ {
		if _, err := e.PathFor(0, d, uint64(d)); err != nil {
			t.Fatal(err)
		}
	}
	var sink topo.Path
	allocs := testing.AllocsPerRun(200, func() {
		for d := 1; d < n; d++ {
			p, err := e.PathFor(0, d, uint64(d))
			if err != nil {
				t.Fatal(err)
			}
			sink = p
		}
	})
	if allocs != 0 {
		t.Fatalf("PathFor allocated %.2f times per warm run, want 0", allocs)
	}
	_ = sink
}

// TestRerouteScratchReuse checks F10LocalReroute with a shared Scratch gives
// identical results to the nil-scratch (allocating) form.
func TestRerouteScratchReuse(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 8, HostsPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	var scratch Scratch
	for dst := 1; dst < ft.NumHosts(); dst++ {
		paths, err := ft.PathStore().Paths(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		orig := paths[len(paths)-1]
		if orig.Hops() < 4 {
			continue
		}
		blocked := topo.NewBlocked()
		blocked.BlockNode(orig.Nodes[2]) // an interior switch
		pShared, okShared := F10LocalReroute(ft, orig, blocked, &scratch)
		pNil, okNil := F10LocalReroute(ft, orig, blocked, nil)
		if okShared != okNil {
			t.Fatalf("dst %d: scratch ok=%v, nil ok=%v", dst, okShared, okNil)
		}
		if !okShared {
			continue
		}
		if len(pShared.Links) != len(pNil.Links) {
			t.Fatalf("dst %d: scratch and nil reroutes differ in length", dst)
		}
		for i := range pShared.Links {
			if pShared.Links[i] != pNil.Links[i] {
				t.Fatalf("dst %d: scratch and nil reroutes diverge at link %d", dst, i)
			}
		}
	}
}
