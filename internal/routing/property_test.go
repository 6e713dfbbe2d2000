package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sharebackup/internal/topo"
)

// TestPerSwitchVsCombinedEquivalence is the core Section 4.3 claim: for
// every (source edge, destination) pair, the VLAN-combined failure-group
// table resolves the same forwarding decision as the source edge switch's
// own two-level table — so preloading the combined table into every switch
// of the group makes each a drop-in impersonator.
func TestPerSwitchVsCombinedEquivalence(t *testing.T) {
	k := 8
	for pod := 0; pod < k; pod++ {
		vt, err := BuildVLANTable(k, pod)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k/2; j++ {
			in, out, err := BuildEdgeTable(k, pod, j)
			if err != nil {
				t.Fatal(err)
			}
			// Out-bound: tagged lookups match the edge's own table
			// for every non-local destination.
			for dpod := 0; dpod < k; dpod++ {
				for dsub := 0; dsub < k/2; dsub++ {
					for h := 0; h < k/2; h++ {
						dst := Addr{10, uint8(dpod), uint8(dsub), uint8(2 + h)}
						local := dpod == pod && dsub == j
						got, gok := vt.Lookup(j, dst)
						var want Port
						var wok bool
						if local {
							want, wok = in.Lookup(dst)
						} else {
							want, wok = out.Lookup(dst)
						}
						if gok != wok || got != want {
							t.Fatalf("pod %d edge %d dst %v: combined (%v,%v) != own (%v,%v)",
								pod, j, dst, got, gok, want, wok)
						}
					}
				}
			}
			// In-bound: untagged lookups match the shared in-bound
			// entries.
			for h := 0; h < k/2; h++ {
				dst := Addr{10, uint8(pod), uint8(j), uint8(2 + h)}
				got, gok := vt.Lookup(Untagged, dst)
				want, wok := in.Lookup(dst)
				if gok != wok || got != want {
					t.Fatalf("inbound mismatch at pod %d edge %d host %d", pod, j, h)
				}
			}
		}
	}
}

// TestQuickDeliveryMatchesECMPStructure: routed walks always have the
// structural length ECMP paths have, for random host pairs and ks.
func TestQuickDeliveryMatchesECMPStructure(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		ft, err := topo.NewFatTree(topo.Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		dp, err := newDataPlane(ft)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 150; i++ {
			src := rng.Intn(ft.NumHosts())
			dst := rng.Intn(ft.NumHosts())
			if src == dst {
				continue
			}
			walk, err := dp.deliver(src, dst)
			if err != nil {
				t.Fatalf("k=%d Deliver(%d,%d): %v", k, src, dst, err)
			}
			paths, err := ft.ECMPPaths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(walk)-1 != paths[0].Hops() {
				t.Fatalf("k=%d Deliver(%d,%d): %d hops, ECMP structure says %d",
					k, src, dst, len(walk)-1, paths[0].Hops())
			}
		}
	}
}

// TestQuickF10DetourProperties: for random single failures on random paths,
// a successful F10 local detour (a) avoids the failure, (b) keeps the
// original prefix up to the repair point, and (c) never shortens the path.
func TestQuickF10DetourProperties(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := r.Intn(ft.NumHosts())
		dst := r.Intn(ft.NumHosts())
		if src == dst {
			return true
		}
		paths, err := ft.ECMPPaths(src, dst)
		if err != nil {
			return false
		}
		orig := paths[r.Intn(len(paths))]
		blocked := topo.NewBlocked()
		// Fail a random interior element of the path.
		if r.Intn(2) == 0 && orig.Hops() > 2 {
			idx := 1 + r.Intn(len(orig.Nodes)-2)
			if ft.Node(orig.Nodes[idx]).Kind == topo.KindHost {
				return true
			}
			blocked.BlockNode(orig.Nodes[idx])
		} else {
			blocked.BlockLink(orig.Links[r.Intn(len(orig.Links))])
		}
		np, ok := F10LocalReroute(ft, orig, blocked, nil)
		if !ok {
			return true // some failures have no local detour
		}
		if !blocked.PathOK(np) {
			return false
		}
		if np.Hops() < orig.Hops() {
			return false
		}
		if np.Nodes[0] != orig.Nodes[0] || np.Nodes[len(np.Nodes)-1] != orig.Nodes[len(orig.Nodes)-1] {
			return false
		}
		// Well-formed splice.
		for i, lid := range np.Links {
			l := ft.Link(lid)
			if !(l.A == np.Nodes[i] && l.B == np.Nodes[i+1]) && !(l.B == np.Nodes[i] && l.A == np.Nodes[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickGlobalOptimalNeverDilates: global-optimal rerouting always
// returns an equal-cost path when one survives.
func TestQuickGlobalOptimalNeverDilates(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	load := NewLinkLoad(ft.Topology)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := r.Intn(ft.NumHosts())
		dst := r.Intn(ft.NumHosts())
		if src == dst {
			return true
		}
		blocked := topo.NewBlocked()
		blocked.BlockNode(ft.Agg(r.Intn(6), r.Intn(3)))
		blocked.BlockNode(ft.Core(r.Intn(9)))
		np, ok := GlobalOptimalReroute(ft, src, dst, blocked, load)
		if !ok {
			// Only possible if every equal-cost path is dead,
			// which two blocked fabric nodes cannot do in k=6
			// unless src/dst share the blocked elements' pod
			// structure; verify against the ECMP set.
			paths, _ := ft.ECMPPaths(src, dst)
			for _, p := range paths {
				if blocked.PathOK(p) {
					return false
				}
			}
			return true
		}
		paths, _ := ft.ECMPPaths(src, dst)
		return np.Hops() == paths[0].Hops() && blocked.PathOK(np)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
