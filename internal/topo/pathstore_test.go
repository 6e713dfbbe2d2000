package topo

import (
	"math/rand"
	"sync"
	"testing"
)

func pathsEqual(a, b Path) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

// TestPathStoreDifferential is the exactness contract: for every wiring and a
// randomized sample of host pairs, the interned paths must be bit-identical —
// same order, same node and link sequences — to a fresh ECMPPaths enumeration.
func TestPathStoreDifferential(t *testing.T) {
	for _, tc := range []struct {
		k  int
		ab bool
	}{
		{4, false}, {4, true}, {8, false}, {8, true}, {16, false}, {16, true},
	} {
		ft, err := NewFatTree(Config{K: tc.k, AB: tc.ab})
		if err != nil {
			t.Fatal(err)
		}
		ps := ft.PathStore()
		n := ft.NumHosts()
		r := rand.New(rand.NewSource(int64(tc.k) + 100))
		// All pairs at k=4; a random sample at larger k.
		trials := n * (n - 1)
		if tc.k > 4 {
			trials = 500
		}
		for trial := 0; trial < trials; trial++ {
			var src, dst int
			if tc.k == 4 {
				src, dst = trial/(n-1), trial%(n-1)
				if dst >= src {
					dst++
				}
			} else {
				src, dst = r.Intn(n), r.Intn(n)
				if src == dst {
					continue
				}
			}
			fresh, err := ft.ECMPPaths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := ps.Paths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh) != len(cached) {
				t.Fatalf("k=%d ab=%v pair (%d,%d): %d cached paths, want %d",
					tc.k, tc.ab, src, dst, len(cached), len(fresh))
			}
			for i := range fresh {
				if !pathsEqual(fresh[i], cached[i]) {
					t.Fatalf("k=%d ab=%v pair (%d,%d) path %d differs:\ncached %v\nfresh  %v",
						tc.k, tc.ab, src, dst, i, cached[i], fresh[i])
				}
			}
		}
	}
}

// TestPathStoreIDs checks that PathIDs round-trip through Path and are a pure
// function of the pair, independent of build order.
func TestPathStoreIDs(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPathStore(ft)
	ids, err := ps.IDs(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ps.Paths(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(paths) {
		t.Fatalf("%d ids, %d paths", len(ids), len(paths))
	}
	for i, id := range ids {
		p, err := ps.Path(id)
		if err != nil {
			t.Fatal(err)
		}
		if !pathsEqual(p, paths[i]) {
			t.Fatalf("id %#x resolves to the wrong path", uint64(id))
		}
	}
	// A second store queried in a different order yields identical IDs.
	ps2 := NewPathStore(ft)
	if _, err := ps2.Paths(3, 7); err != nil {
		t.Fatal(err)
	}
	ids2, err := ps2.IDs(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Fatalf("PathID depends on build order: %#x vs %#x", uint64(ids[i]), uint64(ids2[i]))
		}
	}
	// Path on an unbuilt pair builds it.
	ps3 := NewPathStore(ft)
	if _, err := ps3.Path(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Out-of-range IDs fail cleanly.
	if _, err := ps3.Path(PathID(1) << 60); err == nil {
		t.Fatal("expected error for out-of-range pair index")
	}
	if _, err := ps3.Path(ids[0] | 0xffff); err == nil {
		t.Fatal("expected error for out-of-range rank")
	}
}

// TestPathStoreErrors checks lookups fail with the same errors as ECMPPaths.
func TestPathStoreErrors(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps := ft.PathStore()
	for _, pair := range [][2]int{{3, 3}, {-1, 0}, {0, ft.NumHosts()}} {
		_, freshErr := ft.ECMPPaths(pair[0], pair[1])
		_, cachedErr := ps.Paths(pair[0], pair[1])
		if freshErr == nil || cachedErr == nil {
			t.Fatalf("pair %v: expected errors, got fresh=%v cached=%v", pair, freshErr, cachedErr)
		}
		if freshErr.Error() != cachedErr.Error() {
			t.Fatalf("pair %v: error mismatch:\nfresh  %v\ncached %v", pair, freshErr, cachedErr)
		}
	}
}

// TestPathStoreStats checks the pair/path counters and that FatTree.PathStore
// returns one shared instance.
func TestPathStoreStats(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps := ft.PathStore()
	if ps != ft.PathStore() {
		t.Fatal("FatTree.PathStore is not a stable singleton")
	}
	if st := ps.Stats(); st != (PathStoreStats{}) {
		t.Fatalf("fresh store stats = %+v, want zero", st)
	}
	// Select interns one path and no pair; a repeat at the same rank adds
	// nothing, another rank adds one more.
	for _, h := range []uint64{1, 5, 2} { // 4 paths: ranks 1, 1, 2
		if _, _, err := ps.Select(0, 15, h); err != nil {
			t.Fatal(err)
		}
	}
	if st := ps.Stats(); st != (PathStoreStats{Singles: 2}) {
		t.Fatalf("stats after three Selects on two ranks = %+v, want {0 0 2}", st)
	}
	p1, err := ps.Paths(0, 15) // inter-pod: (k/2)^2 = 4 paths
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Paths(0, 15); err != nil { // repeat: no new pair
		t.Fatal(err)
	}
	st := ps.Stats()
	if st != (PathStoreStats{Pairs: 1, Paths: len(p1), Singles: 2}) {
		t.Fatalf("stats = %+v, want {1 %d 2}", st, len(p1))
	}
}

// TestInternedPathInvariants covers topo.Path behavior on interned storage:
// Clone independence and membership queries.
func TestInternedPathInvariants(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ft.PathStore().Paths(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	for _, n := range p.Nodes {
		if !p.Contains(n) {
			t.Fatalf("interned path misses its own node %d", n)
		}
	}
	for _, l := range p.Links {
		if !p.ContainsLink(l) {
			t.Fatalf("interned path misses its own link %d", l)
		}
	}
	if p.Contains(None) || p.ContainsLink(NoLink) {
		t.Fatal("interned path contains sentinels")
	}
	clone := p.Clone()
	clone.Nodes[0] = None
	clone.Links[0] = NoLink
	again, err := ft.PathStore().Paths(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Nodes[0] == None || again[0].Links[0] == NoLink {
		t.Fatal("mutating a clone corrupted interned storage")
	}
	// Appending to a returned path must not clobber the neighboring
	// interned path (full-capacity subslices).
	grown := append(paths[0].Nodes, None)
	_ = grown
	if fresh, _ := ft.ECMPPaths(0, 15); !pathsEqual(fresh[1], paths[1]) {
		t.Fatal("append on one interned path clobbered its neighbor")
	}
}

// TestPathStoreConcurrent proves sweep workers can share one store: many
// goroutines hammer overlapping pairs while the store builds lazily. Run
// under -race this is the data-race proof required by the interning contract.
func TestPathStoreConcurrent(t *testing.T) {
	ft, err := NewFatTree(Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := ft.PathStore()
	n := ft.NumHosts()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				src, dst := r.Intn(n), r.Intn(n)
				if src == dst {
					continue
				}
				paths, err := ps.Paths(src, dst)
				if err != nil {
					errs <- err
					return
				}
				// Read through the shared storage.
				for _, p := range paths {
					if p.Nodes[0] != ft.Host(src) || p.Nodes[len(p.Nodes)-1] != ft.Host(dst) {
						t.Errorf("pair (%d,%d): wrong endpoints", src, dst)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClassEnumerationMatchesECMPInterior checks the direct class
// enumeration against what it replaced: a fresh ECMPPaths set with the
// pair-specific endpoints stripped. Every kind of class is covered per
// wiring — a shared edge switch, two edge switches of one pod, and pods of
// each wiring type on either end — node for node and link for link.
func TestClassEnumerationMatchesECMPInterior(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		for _, ab := range []bool{false, true} {
			ft, err := NewFatTree(Config{K: k, AB: ab})
			if err != nil {
				t.Fatal(err)
			}
			ps := NewPathStore(ft)
			first := func(pod, e int) int { return ft.HostsOfEdge(pod, e)[0] }
			pairs := []struct {
				kind     string
				src, dst int
				paths    int
			}{
				{"same-edge", first(0, 0), first(0, 0) + 1, 1},
				{"same-pod", first(0, 0), first(0, 1), k / 2},
				{"same-pod-B", first(1, 1), first(1, 0), k / 2},
				{"inter-pod A-A", first(0, 0), first(2, 1), k * k / 4},
				{"inter-pod A-B", first(0, 1), first(1, 0), k * k / 4},
				{"inter-pod B-A", first(3, 0), first(2, 0), k * k / 4},
				{"inter-pod B-B", first(1, 1), first(3, 1), k * k / 4},
			}
			for _, p := range pairs {
				fresh, err := ft.ECMPPaths(p.src, p.dst)
				if err != nil {
					t.Fatal(err)
				}
				ps.mu.Lock()
				c, err := ps.class(ft.EdgeOfHost(p.src), ft.EdgeOfHost(p.dst))
				ps.mu.Unlock()
				if err != nil {
					t.Fatalf("k=%d ab=%v %s: %v", k, ab, p.kind, err)
				}
				if c.paths != p.paths || c.paths != len(fresh) {
					t.Fatalf("k=%d ab=%v %s: %d segments, ECMPPaths has %d, want %d", k, ab, p.kind, c.paths, len(fresh), p.paths)
				}
				if len(c.nodes) != c.paths*c.nn || len(c.links) != c.paths*(c.nn-1) {
					t.Fatalf("k=%d ab=%v %s: slabs hold %d nodes / %d links for %d segments of %d nodes",
						k, ab, p.kind, len(c.nodes), len(c.links), c.paths, c.nn)
				}
				for i, f := range fresh {
					want := Path{Nodes: f.Nodes[1 : len(f.Nodes)-1], Links: f.Links[1 : len(f.Links)-1]}
					got := Path{Nodes: c.nodes[i*c.nn : (i+1)*c.nn], Links: c.links[i*(c.nn-1) : (i+1)*(c.nn-1)]}
					if !pathsEqual(got, want) {
						t.Fatalf("k=%d ab=%v %s segment %d:\n got %v\nwant %v", k, ab, p.kind, i, got, want)
					}
				}
			}
		}
	}
}

// TestSelectMatchesFullSet is Select's exactness contract: for every rank,
// the path it builds alone — rank -> (aggregation, core) from the wiring
// rules — is Paths(src, dst)[rank], node for node and link for link, with the
// same PathID, whether the full set is built after the single paths or
// before them. Every kind of pair is covered per wiring, as in
// TestClassEnumerationMatchesECMPInterior.
func TestSelectMatchesFullSet(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		for _, ab := range []bool{false, true} {
			ft, err := NewFatTree(Config{K: k, AB: ab})
			if err != nil {
				t.Fatal(err)
			}
			first := func(pod, e int) int { return ft.HostsOfEdge(pod, e)[0] }
			pairs := [][2]int{
				{first(0, 0), first(0, 0) + 1}, // same edge
				{first(0, 0), first(0, 1)},     // same pod
				{first(1, 1), first(1, 0)},     // same pod, type B under AB
				{first(0, 0), first(2, 1)},     // inter-pod A-A
				{first(0, 1), first(1, 0)},     // A-B
				{first(3, 0), first(2, 0)},     // B-A
				{first(1, 1), first(3, 1)},     // B-B
			}
			for _, fullFirst := range []bool{false, true} {
				ps := NewPathStore(ft)
				singles := 0
				for _, p := range pairs {
					src, dst := p[0], p[1]
					fresh, err := ft.ECMPPaths(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					if fullFirst {
						if _, err := ps.Paths(src, dst); err != nil {
							t.Fatal(err)
						}
					} else {
						singles += len(fresh)
					}
					// Hashes past the path count wrap; the high ones also
					// prove the rank is taken mod the count, not truncated.
					got := make([]Path, len(fresh))
					gotID := make([]PathID, len(fresh))
					for h := uint64(0); h < uint64(2*len(fresh)); h++ {
						rank := h % uint64(len(fresh))
						got[rank], gotID[rank], err = ps.Select(src, dst, h+uint64(len(fresh))<<40)
						if err != nil {
							t.Fatal(err)
						}
					}
					paths, err := ps.Paths(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					ids, err := ps.IDs(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					for rank := range fresh {
						if !pathsEqual(got[rank], paths[rank]) || !pathsEqual(got[rank], fresh[rank]) || gotID[rank] != ids[rank] {
							t.Fatalf("k=%d ab=%v fullFirst=%v pair (%d,%d) rank %d: Select = %v id %#x, Paths = %v id %#x, ECMPPaths = %v",
								k, ab, fullFirst, src, dst, rank, got[rank], uint64(gotID[rank]), paths[rank], uint64(ids[rank]), fresh[rank])
						}
						// Once the set exists Select serves from it.
						again, _, err := ps.Select(src, dst, uint64(rank))
						if err != nil || &again.Nodes[0] != &paths[rank].Nodes[0] {
							t.Fatalf("k=%d ab=%v pair (%d,%d) rank %d: Select after Paths does not serve the interned set (err %v)", k, ab, src, dst, rank, err)
						}
					}
				}
				if st := ps.Stats(); st.Singles != singles || st.Pairs != len(pairs) {
					t.Fatalf("k=%d ab=%v fullFirst=%v: stats %+v, want %d singles and %d pairs", k, ab, fullFirst, st, singles, len(pairs))
				}
			}
		}
	}
}

// TestSelectErrors: Select rejects what Paths rejects, with the same errors.
func TestSelectErrors(t *testing.T) {
	ft, err := NewFatTree(Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps := ft.PathStore()
	for _, pair := range [][2]int{{0, 0}, {-1, 3}, {3, ft.NumHosts()}} {
		_, wantErr := ps.Paths(pair[0], pair[1])
		_, _, gotErr := ps.Select(pair[0], pair[1], 7)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("pair %v: Select error %v, Paths error %v", pair, gotErr, wantErr)
		}
	}
}

// TestSelectConcurrentWithPaths hammers the same pairs with Select and Paths
// from many goroutines while both build lazily — single paths, the full set
// replacing the entry under them — and checks every answer against a fresh
// enumeration. Under -race this is the proof that the two ways of interning
// a pair can share it.
func TestSelectConcurrentWithPaths(t *testing.T) {
	ft, err := NewFatTree(Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPathStore(ft)
	n := ft.NumHosts()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers share one pair sequence and differ in the ranks they
			// pick, so single interns and full builds of a pair collide.
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 600; i++ {
				src, dst := r.Intn(n), r.Intn(n)
				if src == dst {
					continue
				}
				fresh, err := ft.ECMPPaths(src, dst)
				if err != nil {
					t.Error(err)
					return
				}
				h := uint64(i*workers + w)
				got, id, err := ps.Select(src, dst, h)
				rank := int(h % uint64(len(fresh)))
				if err != nil || !pathsEqual(got, fresh[rank]) {
					t.Errorf("pair (%d,%d) rank %d: Select = %v, %v; want %v", src, dst, rank, got, err, fresh[rank])
					return
				}
				if (i+w)%3 != 0 {
					continue
				}
				paths, err := ps.Paths(src, dst)
				if err != nil || !pathsEqual(paths[rank], got) {
					t.Errorf("pair (%d,%d) rank %d: Paths disagrees with Select (err %v)", src, dst, rank, err)
					return
				}
				if byID, err := ps.Path(id); err != nil || !pathsEqual(byID, got) {
					t.Errorf("pair (%d,%d) rank %d: Path(%#x) disagrees with Select (err %v)", src, dst, rank, uint64(id), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
