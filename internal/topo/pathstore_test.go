package topo

import (
	"math/rand"
	"runtime"
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
// Host counts that are not a multiple of chunkSize (54 at k=6, 96 with three
// hosts per edge at k=8) put a partial chunk at the end of every row; those
// and k=4 check every pair, the larger fabrics a sample plus every pair that
// straddles a chunk boundary or ends in a row's last slot.
func TestPathStoreDifferential(t *testing.T) {
	for _, tc := range []struct {
		k, per int
		ab     bool
	}{
		{4, 0, false}, {4, 0, true}, {6, 0, false}, {6, 0, true}, {8, 3, false}, {8, 3, true},
		{8, 0, false}, {8, 0, true}, {16, 0, false}, {16, 0, true},
	} {
		ft, err := NewFatTree(Config{K: tc.k, HostsPerEdge: tc.per, AB: tc.ab})
		if err != nil {
			t.Fatal(err)
		}
		ps := ft.PathStore()
		n := ft.NumHosts()
		var pairs [][2]int
		if n <= 100 {
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					pairs = append(pairs, [2]int{src, dst})
				}
			}
		} else {
			r := rand.New(rand.NewSource(int64(tc.k) + 100))
			for i := 0; i < 500; i++ {
				pairs = append(pairs, [2]int{r.Intn(n), r.Intn(n)})
			}
			for b := chunkSize; b < n; b += chunkSize {
				pairs = append(pairs, [2]int{b - 1, b}, [2]int{b, b - 1}, [2]int{b - 1, b + 1}, [2]int{r.Intn(n), b}, [2]int{r.Intn(n), b - 1})
			}
			pairs = append(pairs, [2]int{0, n - 1}, [2]int{n - 1, 0}, [2]int{n - 2, n - 1}, [2]int{n - 1, n - 2})
		}
		for _, p := range pairs {
			src, dst := p[0], p[1]
			if src == dst {
				continue
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
				t.Fatalf("k=%d per=%d ab=%v pair (%d,%d): %d cached paths, want %d",
					tc.k, tc.per, tc.ab, src, dst, len(cached), len(fresh))
			}
			for i := range fresh {
				if !pathsEqual(fresh[i], cached[i]) {
					t.Fatalf("k=%d per=%d ab=%v pair (%d,%d) path %d differs:\ncached %v\nfresh  %v",
						tc.k, tc.per, tc.ab, src, dst, i, cached[i], fresh[i])
				}
			}
		}
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
		if _, err := ps.Select(0, 15, h); err != nil {
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
	ft, err := NewFatTree(Config{K: 8}) // 128 hosts: two chunks per row
	if err != nil {
		t.Fatal(err)
	}
	ps := ft.PathStore()
	n := ft.NumHosts()
	const workers = 8
	lookup := func(src, dst int) bool {
		paths, err := ps.Paths(src, dst)
		if err != nil {
			t.Error(err)
			return false
		}
		// Read through the shared storage.
		for _, p := range paths {
			if p.Nodes[0] != ft.Host(src) || p.Nodes[len(p.Nodes)-1] != ft.Host(dst) {
				t.Errorf("pair (%d,%d): wrong endpoints", src, dst)
				return false
			}
		}
		return true
	}
	// First touches: released together, the workers walk the sources in one
	// order, each asking for its own destination in the chunk src is not in,
	// so every row's and chunk's first allocation is contended. A first touch
	// that dropped another's row or chunk would lose the pairs in it and
	// build them again: Pairs would end above the number of distinct pairs.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for src := 0; src < n; src++ {
				if !lookup(src, (src/chunkSize+1)*chunkSize%n+w) {
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if st := ps.Stats(); st.Pairs != n*workers {
		t.Fatalf("racing first touches built %d pairs, want %d", st.Pairs, n*workers)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				src, dst := r.Intn(n), r.Intn(n)
				if src != dst && !lookup(src, dst) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestClassEnumerationMatchesECMPInterior checks stamp, the store's one path
// writer, against the independent enumeration: for every kind of pair per
// wiring — a shared edge switch, two edge switches of one pod, and pods of
// each wiring type on either end — every rank stamped alone is ECMPPaths'
// path at that rank, node for node and link for link.
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
				hp := ps.pair(p.src, p.dst)
				if hp.count != p.paths || hp.count != len(fresh) {
					t.Fatalf("k=%d ab=%v %s: %d paths, ECMPPaths has %d, want %d", k, ab, p.kind, hp.count, len(fresh), p.paths)
				}
				for rank, want := range fresh {
					got := Path{Nodes: make([]NodeID, hp.hops+1), Links: make([]LinkID, hp.hops)}
					ps.stamp(got, &hp, rank)
					if !pathsEqual(got, want) {
						t.Fatalf("k=%d ab=%v %s rank %d:\n got %v\nwant %v", k, ab, p.kind, rank, got, want)
					}
				}
			}
		}
	}
}

// TestArenaViews: every slice an arena hands out is a full-capacity view of
// its own elements — across chunk boundaries, past arenaMax, and at the
// chunk's exact end — so an append on one can never write into another.
func TestArenaViews(t *testing.T) {
	var a arena[int]
	var views [][]int
	for i, n := range []int{1, arenaFirst - 1, arenaFirst + 1, 7, arenaMax + 3, 2, arenaMax, 1} {
		v := a.take(n)
		if len(v) != n || cap(v) != n {
			t.Fatalf("take(%d): len %d cap %d", n, len(v), cap(v))
		}
		for j := range v {
			v[j] = i
		}
		views = append(views, v)
	}
	for i, v := range views {
		for _, x := range v {
			if x != i {
				t.Fatalf("view %d holds %d: two views share elements", i, x)
			}
		}
	}
}

// TestSelectMatchesFullSet is Select's exactness contract: for every rank,
// the path it builds alone — rank -> (aggregation, core) from the wiring
// rules — is Paths(src, dst)[rank], node for node and link for link, whether
// the full set is built after the single paths or before them. Every kind of
// pair is covered per wiring, as in TestClassEnumerationMatchesECMPInterior,
// plus pairs on either side of a chunk boundary and in a row's last, partial
// chunk (54 hosts at k=6, 96 at k=8 with three hosts per edge).
func TestSelectMatchesFullSet(t *testing.T) {
	for _, tc := range []struct{ k, per int }{{4, 0}, {6, 0}, {8, 3}, {8, 0}, {16, 0}} {
		for _, ab := range []bool{false, true} {
			k := tc.k
			ft, err := NewFatTree(Config{K: k, HostsPerEdge: tc.per, AB: ab})
			if err != nil {
				t.Fatal(err)
			}
			n := ft.NumHosts()
			first := func(pod, e int) int { return ft.HostsOfEdge(pod, e)[0] }
			pairs := [][2]int{
				{first(0, 0), first(0, 0) + 1}, // same edge
				{first(0, 0), first(0, 1)},     // same pod
				{first(1, 1), first(1, 0)},     // same pod, type B under AB
				{first(0, 0), first(2, 1)},     // inter-pod A-A
				{first(0, 1), first(1, 0)},     // A-B
				{first(3, 0), first(2, 0)},     // B-A
				{first(1, 1), first(3, 1)},     // B-B
				{0, n - 1}, {n - 1, n - 2},     // a row's last slots
			}
			if n > chunkSize {
				pairs = append(pairs, [2]int{chunkSize - 1, chunkSize}, [2]int{chunkSize, chunkSize - 1})
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
					// Ranks are interned out of order (odd ranks descending,
					// then even ones ascending) so the rank-sorted list sees
					// inserts at its head, tail and middle. Hashes past the
					// path count wrap; the high ones also prove the rank is
					// taken mod the count, not truncated.
					m := len(fresh)
					order := make([]int, 0, 2*m)
					for r := m - 1; r >= 0; r-- {
						if r%2 == 1 {
							order = append(order, r)
						}
					}
					for r := 0; r < 2*m; r += 2 {
						order = append(order, r)
					}
					got := make([]Path, m)
					for _, h := range order {
						got[h%m], err = ps.Select(src, dst, uint64(h)+uint64(m)<<40)
						if err != nil {
							t.Fatal(err)
						}
					}
					paths, err := ps.Paths(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					for rank := range fresh {
						if !pathsEqual(got[rank], paths[rank]) || !pathsEqual(got[rank], fresh[rank]) {
							t.Fatalf("k=%d per=%d ab=%v fullFirst=%v pair (%d,%d) rank %d: Select = %v, Paths = %v, ECMPPaths = %v",
								k, tc.per, ab, fullFirst, src, dst, rank, got[rank], paths[rank], fresh[rank])
						}
						// Once the set exists Select serves from it.
						again, err := ps.Select(src, dst, uint64(rank))
						if err != nil || &again.Nodes[0] != &paths[rank].Nodes[0] {
							t.Fatalf("k=%d ab=%v pair (%d,%d) rank %d: Select after Paths does not serve the interned set (err %v)", k, ab, src, dst, rank, err)
						}
					}
				}
				if st := ps.Stats(); st.Singles != singles || st.Pairs != len(pairs) {
					t.Fatalf("k=%d per=%d ab=%v fullFirst=%v: stats %+v, want %d singles and %d pairs", k, tc.per, ab, fullFirst, st, singles, len(pairs))
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
		_, gotErr := ps.Select(pair[0], pair[1], 7)
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
	ft, err := NewFatTree(Config{K: 8}) // 128 hosts: two chunks per row
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPathStore(ft)
	n := ft.NumHosts()
	const workers = 8
	// check asks for the pair's path at hash through Select, and also for the
	// whole set when full is set, against a fresh enumeration.
	check := func(src, dst int, h uint64, full bool) bool {
		fresh, err := ft.ECMPPaths(src, dst)
		if err != nil {
			t.Error(err)
			return false
		}
		rank := int(h % uint64(len(fresh)))
		got, err := ps.Select(src, dst, h)
		if err != nil || !pathsEqual(got, fresh[rank]) {
			t.Errorf("pair (%d,%d) rank %d: Select = %v, %v; want %v", src, dst, rank, got, err, fresh[rank])
			return false
		}
		if !full {
			return true
		}
		paths, err := ps.Paths(src, dst)
		if err != nil || !pathsEqual(paths[rank], got) {
			t.Errorf("pair (%d,%d) rank %d: Paths disagrees with Select (err %v)", src, dst, rank, err)
			return false
		}
		return true
	}
	// First touches: released together, the workers walk the sources in one
	// order; workers 2i and 2i+1 ask for the same destination, in the chunk
	// src is not in, one through Select alone and one through Paths too — so
	// a row's and a chunk's first allocation, a single intern and a full
	// build all collide. A dropped row or chunk would show as pairs built
	// twice.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for src := 0; src < n; src++ {
				if !check(src, (src/chunkSize+1)*chunkSize%n+w/2, uint64(src+w), w%2 == 1) {
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if st := ps.Stats(); st.Pairs != n*workers/2 || st.Singles > n*workers {
		t.Fatalf("racing first touches: stats %+v, want %d pairs and at most %d singles", st, n*workers/2, n*workers)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers share one pair sequence and differ in the ranks they
			// pick, so single interns and full builds of a pair collide.
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 600; i++ {
				src, dst := r.Intn(n), r.Intn(n)
				if src != dst && !check(src, dst, uint64(i*workers+w), (i+w)%3 == 0) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// allocatedBy returns the bytes f allocates, as a runtime.MemStats.TotalAlloc
// delta: cumulative, so no collection between the two readings can change it.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPathStoreFootprintFollowsTouchedPairs: a store costs what the pairs it
// was asked for cost. sim-storm's lookups on its k=32 fabric of 2 048 hosts
// intern under 1 % of the ordered pairs; a slot per possible pair made that
// 44 MB.
func TestPathStoreFootprintFollowsTouchedPairs(t *testing.T) {
	ft, err := NewFatTree(Config{K: 32, HostsPerEdge: 4})
	if err != nil {
		t.Fatal(err)
	}
	pairs := stormPairs(32, 4, 20, 1)
	got := allocatedBy(func() {
		ps := ft.PathStore()
		for _, p := range pairs {
			if _, err := ps.Paths(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if st := ft.PathStore().Stats(); st.Pairs == 0 || st.Pairs*100 > ft.NumHosts()*ft.NumHosts() {
		t.Fatalf("the storm mix built %d pairs of %d hosts; the test wants a sparse, non-empty store", st.Pairs, ft.NumHosts())
	}
	const limit = 20 << 20
	if got > limit {
		t.Fatalf("store allocated %d bytes for the storm's pairs, want at most %d", got, limit)
	}
}

// TestPathStoreConstructsAtFullScale: a store over the full k=48 fat-tree —
// 27 648 hosts, 764 M ordered pairs — is built, and serves a failure study's
// worth of lookups, in a few megabytes.
func TestPathStoreConstructsAtFullScale(t *testing.T) {
	ft, err := NewFatTree(Config{K: 48})
	if err != nil {
		t.Fatal(err)
	}
	n := ft.NumHosts()
	if n != 27648 {
		t.Fatalf("k=48 fat-tree has %d hosts, want 27648", n)
	}
	rng := rand.New(rand.NewSource(48))
	got := allocatedBy(func() {
		ps := ft.PathStore()
		for i := 0; i < 1000; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			if _, err := ps.Select(src, dst, rng.Uint64()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			src := rng.Intn(n)
			if _, err := ps.Paths(src, podLocalPeer(rng, src, 24, 24*24)); err != nil {
				t.Fatal(err)
			}
		}
	})
	const limit = 16 << 20
	if got >= limit {
		t.Fatalf("store over %d hosts allocated %d bytes for 1000 Selects and 100 Paths, want under %d", n, got, limit)
	}
}

// TestSelectCostIndependentOfPathCount: what Select interns for a pair is the
// selected path, not a slot per equal-cost path — an inter-pod pair has 16 of
// them at k=8 and 256 at k=32 and costs the same bytes.
func TestSelectCostIndependentOfPathCount(t *testing.T) {
	perPair := func(k int) uint64 {
		ft, err := NewFatTree(Config{K: k, HostsPerEdge: 4})
		if err != nil {
			t.Fatal(err)
		}
		ps := ft.PathStore()
		// Hosts 64..127 are one chunk of host 0's row and not in its pod.
		sel := func(dst int) {
			if _, err := ps.Select(0, dst, uint64(dst)*0x9e3779b97f4a7c15); err != nil {
				t.Fatal(err)
			}
		}
		sel(64) // pays for the row and the chunk
		return allocatedBy(func() {
			for dst := 65; dst < 128; dst++ {
				sel(dst)
			}
		}) / 63
	}
	small, large := perPair(8), perPair(32)
	if large > small || large > 256 {
		t.Fatalf("an inter-pod Select interns %d bytes at k=32 and %d at k=8; want equal, and at most 256", large, small)
	}
}

// TestBuildCostGate pins the cold build's cost without a wall clock: the
// allocations of NewFatTree at k=8, and what a fresh store then allocates to
// serve a storm-style schedule on it. NewFatTree sizes its node, link and
// pair-index tables once (399 allocations measured, nearly all of them
// per-node adjacency; 435 when the tables grew by appending), and the store
// resolves fabric links by the wiring rule: with the pair index dropped, its
// paths must still match ECMPPaths.
func TestBuildCostGate(t *testing.T) {
	cfg := Config{K: 8, HostsPerEdge: 4}
	pairs := stormPairs(8, 4, 20, 1)
	build := func() *FatTree {
		ft, err := NewFatTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	fabric := testing.AllocsPerRun(5, func() { build() })
	if limit := 410.0; fabric > limit {
		t.Errorf("NewFatTree(k=8) allocates %v times, want at most %v", fabric, limit)
	}
	schedule := testing.AllocsPerRun(5, func() {
		ps := build().PathStore()
		for _, p := range pairs {
			if _, err := ps.Paths(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	})
	// 409 measured: rows, chunks and arena chunks (3 603 when a class cache
	// fed four allocations per built pair).
	if store, limit := schedule-fabric, 415.0; store > limit {
		t.Errorf("a store serving %d storm lookups allocates %v times, want at most %v", len(pairs), store, limit)
	}

	// Every kind of pair, from the first and the last host.
	ref, ft := build(), build()
	ft.byPair = nil // LinkBetween now answers NoLink for every pair
	ps := ft.PathStore()
	n := ft.NumHosts()
	for _, src := range []int{0, n - 1} {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			want, err := ref.ECMPPaths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ps.Paths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			one, err := NewPathStore(ft).Select(src, dst, uint64(dst))
			if err != nil {
				t.Fatal(err)
			}
			if r := dst % len(want); !pathsEqual(one, want[r]) {
				t.Fatalf("(%d, %d) rank %d: Select without the pair index gives %v, ECMPPaths %v", src, dst, r, one, want[r])
			}
			for r := range want {
				if !pathsEqual(got[r], want[r]) {
					t.Fatalf("(%d, %d) path %d: %v without the pair index, ECMPPaths %v", src, dst, r, got[r], want[r])
				}
			}
		}
	}
}
