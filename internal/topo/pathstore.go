package topo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PathStore interns the ECMP path sets of a fat-tree: each ordered host
// pair's equal-cost paths are written once, by stamp straight from the
// wiring rule, into shared arenas, and handed out as immutable views.
// Lookups after the first are lock-free and allocation-free — the hot-path
// contract ECMP routing and the reroute strategies rely on during failure
// sweeps. A caller that wants one path of a pair (ECMP hashing a flow onto
// it) uses Select, which builds and interns only that path.
//
// Exactness contract: Paths(src, dst) returns paths bit-identical — same
// order, same node and link sequences — to a fresh FatTree.ECMPPaths
// enumeration. pathstore_test.go enforces this differentially across
// topology sizes and wirings.
//
// The returned paths alias interned storage and must not be mutated; use
// Path.Clone for a private copy. A single store may be shared by any number
// of goroutines.
type PathStore struct {
	ft       *FatTree
	numHosts int

	// The pair table is allocated as it is touched: rows[src] is the source
	// host's row, a row holds one pointer per chunk of chunkSize consecutive
	// destination hosts, and a chunk one slot per destination. Rows, chunks
	// and entries are published by atomic stores under mu and never
	// unpublished, so reads are lock-free atomic loads.
	rows []atomic.Pointer[pairRow]

	// mu serializes interning. The arenas, carved under it, hold what a
	// full build writes once and never replaces: the pair's node and link
	// slabs, its path headers and its entry.
	mu      sync.Mutex
	nodes   arena[NodeID]
	links   arena[LinkID]
	headers arena[Path]
	entries arena[pairEntry]

	builtPairs    atomic.Int64
	internedPaths atomic.Int64
	singlePaths   atomic.Int64
}

// chunkSize is the number of consecutive destination hosts whose slots share
// one allocation.
const chunkSize = 64

type (
	pairRow   []atomic.Pointer[pairChunk]
	pairChunk [chunkSize]atomic.Pointer[pairEntry]
)

// arena hands out full-capacity slices of shared chunks. Chunks double from
// arenaFirst up to arenaMax elements; a request larger than the current
// chunk's rest opens the next chunk, and one larger than arenaMax gets a
// chunk of its own size.
type arena[T any] struct {
	free []T
	size int // elements of the last chunk opened
}

const arenaFirst, arenaMax = 64, 1 << 14

func (a *arena[T]) take(n int) []T {
	if n > len(a.free) {
		a.size = min(max(2*a.size, arenaFirst), arenaMax)
		a.free = make([]T, max(a.size, n))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// pairEntry is what one ordered host pair has interned: the full path set
// once Paths asked for it, and before that the paths Select built one at a
// time, sorted by rank. A published entry is immutable; interning more of
// the pair replaces it. An entry with the full set lives in the entries
// arena; the entries and rank lists Select replaces, and their paths, are
// allocated one by one so the arenas never hold what a later build drops.
type pairEntry struct {
	paths  []Path
	count  int // equal-cost paths of the pair; len(paths) once they exist
	single []rankedPath
}

type rankedPath struct {
	rank int
	path Path
}

// searchRank returns the position of rank in the rank-sorted list, or where
// it would go. It is on Select's warm path, where slices.BinarySearchFunc's
// comparison callback doubled the lookup's time.
func searchRank(list []rankedPath, rank int) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].rank < rank {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NewPathStore returns an empty store over ft. Paths are built lazily on
// first lookup; FatTree.PathStore returns a per-topology shared instance.
func NewPathStore(ft *FatTree) *PathStore {
	n := ft.NumHosts()
	return &PathStore{
		ft:       ft,
		numHosts: n,
		rows:     make([]atomic.Pointer[pairRow], n),
	}
}

// checkHostPair validates a host-pair lookup with the exact errors
// ECMPPaths produces, so interned and fresh enumeration are interchangeable.
func (ps *PathStore) checkHostPair(srcHost, dstHost int) error {
	if srcHost == dstHost {
		return fmt.Errorf("topo: ECMPPaths: src and dst are the same host %d", srcHost)
	}
	if srcHost < 0 || srcHost >= ps.numHosts || dstHost < 0 || dstHost >= ps.numHosts {
		return fmt.Errorf("topo: ECMPPaths(%d, %d): host index out of range", srcHost, dstHost)
	}
	return nil
}

// load returns the pair's entry, or nil if nothing of it is interned.
func (ps *PathStore) load(srcHost, dstHost int) *pairEntry {
	row := ps.rows[srcHost].Load()
	if row == nil {
		return nil
	}
	chunk := (*row)[dstHost/chunkSize].Load()
	if chunk == nil {
		return nil
	}
	return chunk[dstHost%chunkSize].Load()
}

// slot returns the pair's table slot, allocating its row and its chunk on
// their first touch. Callers hold ps.mu.
func (ps *PathStore) slot(srcHost, dstHost int) *atomic.Pointer[pairEntry] {
	row := ps.rows[srcHost].Load()
	if row == nil {
		r := make(pairRow, (ps.numHosts+chunkSize-1)/chunkSize)
		row = &r
		ps.rows[srcHost].Store(row)
	}
	c := &(*row)[dstHost/chunkSize]
	chunk := c.Load()
	if chunk == nil {
		chunk = new(pairChunk)
		c.Store(chunk)
	}
	return &chunk[dstHost%chunkSize]
}

// Paths returns the interned ECMP path set for the ordered host pair,
// bit-identical to FatTree.ECMPPaths. The slice and the paths it holds are
// shared and immutable. After the pair's first lookup the call is
// allocation-free.
func (ps *PathStore) Paths(srcHost, dstHost int) ([]Path, error) {
	if err := ps.checkHostPair(srcHost, dstHost); err != nil {
		return nil, err
	}
	if e := ps.load(srcHost, dstHost); e != nil && e.paths != nil {
		return e.paths, nil
	}
	return ps.build(srcHost, dstHost), nil
}

// Select returns Paths(srcHost, dstHost)[hash % len(Paths(srcHost, dstHost))],
// bit-identical to the fully built set's entry, without building the set: on
// a pair's first lookup at a rank only that path is stamped and interned.
// Later lookups at the rank, and every lookup once the pair's full set
// exists, are lock-free and allocation-free.
func (ps *PathStore) Select(srcHost, dstHost int, hash uint64) (Path, error) {
	if err := ps.checkHostPair(srcHost, dstHost); err != nil {
		return Path{}, err
	}
	if e := ps.load(srcHost, dstHost); e != nil {
		rank := int(hash % uint64(e.count))
		if e.paths != nil {
			return e.paths[rank], nil
		}
		if i := searchRank(e.single, rank); i < len(e.single) && e.single[i].rank == rank {
			return e.single[i].path, nil
		}
	}
	return ps.buildOne(srcHost, dstHost, hash), nil
}

// hostPair is an ordered host pair as stamp reads it: the hosts, their
// access links and edge switches, and the pair's equal-cost path count and
// hops per path — one path of two hops for a shared edge switch, k/2 of four
// inside a pod, (k/2)^2 of six across pods.
type hostPair struct {
	s, d        NodeID
	sl, dl      LinkID
	es, ed      Node
	count, hops int
}

func (ps *PathStore) pair(srcHost, dstHost int) hostPair {
	ft := ps.ft
	half := ft.Cfg.K / 2
	hp := hostPair{
		s: ft.hosts[srcHost], d: ft.hosts[dstHost],
		sl: ft.hostLink[srcHost], dl: ft.hostLink[dstHost],
		es: ft.Node(ft.hostEdge[srcHost]), ed: ft.Node(ft.hostEdge[dstHost]),
	}
	switch {
	case hp.es.ID == hp.ed.ID:
		hp.count, hp.hops = 1, 2
	case hp.es.Pod == hp.ed.Pod:
		hp.count, hp.hops = half, 4
	default:
		hp.count, hp.hops = half*half, 6
	}
	return hp
}

// stamp writes the pair's rank-th path in ECMPPaths order into p, whose
// slices hold hp.hops+1 nodes and hp.hops links: inside a pod rank is the
// aggregation switch, across pods rank/(k/2) is the source pod's
// aggregation switch and rank%(k/2) its core slot. Every switch and link
// comes from the wiring rule (coreIndexOfAgg and its inverses,
// NewFatTree's link order), not from a node-pair lookup.
func (ps *PathStore) stamp(p Path, hp *hostPair, rank int) {
	ft := ps.ft
	n, l := p.Nodes, p.Links
	es, ed := hp.es, hp.ed
	n[0], n[1], n[hp.hops-1], n[hp.hops] = hp.s, es.ID, ed.ID, hp.d
	l[0], l[hp.hops-1] = hp.sl, hp.dl
	switch hp.hops {
	case 4:
		n[2] = ft.agg[es.Pod][rank]
		l[1], l[2] = ft.edgeAggLink(es.Pod, es.Index, rank), ft.edgeAggLink(ed.Pod, ed.Index, rank)
	case 6:
		half := ft.Cfg.K / 2
		up, t := rank/half, rank%half
		ci := ft.coreIndexOfAgg(es.Pod, up, t)
		dn := ft.aggIndexOfCore(ci, ed.Pod)
		n[2], n[3], n[4] = ft.agg[es.Pod][up], ft.core[ci], ft.agg[ed.Pod][dn]
		l[1], l[2] = ft.edgeAggLink(es.Pod, es.Index, up), ft.aggCoreLink(es.Pod, up, t)
		l[3], l[4] = ft.aggCoreLink(ed.Pod, dn, ft.coreSlotOfAgg(ed.Pod, ci)), ft.edgeAggLink(ed.Pod, ed.Index, dn)
	}
}

// buildOne stamps and interns the one path of the pair that hash selects,
// by its rank in ECMPPaths order. The pair's entry is replaced by one whose
// rank-sorted list holds the new path too.
func (ps *PathStore) buildOne(srcHost, dstHost int, hash uint64) Path {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	hp := ps.pair(srcHost, dstHost)
	rank := int(hash % uint64(hp.count))
	slot := ps.slot(srcHost, dstHost)
	var single []rankedPath
	if old := slot.Load(); old != nil {
		if old.paths != nil {
			return old.paths[rank]
		}
		single = old.single
	}
	at := searchRank(single, rank)
	if at < len(single) && single[at].rank == rank {
		return single[at].path
	}
	p := Path{Nodes: make([]NodeID, hp.hops+1), Links: make([]LinkID, hp.hops)}
	ps.stamp(p, &hp, rank)
	grown := make([]rankedPath, len(single)+1)
	copy(grown, single[:at])
	grown[at] = rankedPath{rank, p}
	copy(grown[at+1:], single[at:])
	ps.singlePaths.Add(1)
	slot.Store(&pairEntry{count: hp.count, single: grown})
	return p
}

// build materializes one pair's path set under the store lock, stamping
// every rank into slabs carved from the arenas. Each path gets full-capacity
// views, so an (erroneous) append on a returned path or set cannot clobber
// its neighbor. The new entry drops what Select interned: it serves from the
// full set from now on.
func (ps *PathStore) build(srcHost, dstHost int) []Path {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	slot := ps.slot(srcHost, dstHost)
	if old := slot.Load(); old != nil && old.paths != nil {
		return old.paths
	}
	hp := ps.pair(srcHost, dstHost)
	m, nn, nl := hp.count, hp.hops+1, hp.hops
	nodes, links := ps.nodes.take(m*nn), ps.links.take(m*nl)
	paths := ps.headers.take(m)
	for i := range paths {
		paths[i] = Path{Nodes: nodes[i*nn : (i+1)*nn : (i+1)*nn], Links: links[i*nl : (i+1)*nl : (i+1)*nl]}
		ps.stamp(paths[i], &hp, i)
	}
	ps.builtPairs.Add(1)
	ps.internedPaths.Add(int64(m))
	e := &ps.entries.take(1)[0]
	*e = pairEntry{paths: paths, count: m}
	slot.Store(e)
	return paths
}

// PathStoreStats summarizes a store's interned state.
type PathStoreStats struct {
	// Pairs is the number of ordered host pairs whose full path set has
	// been materialized so far.
	Pairs int
	// Paths is the total number of interned paths across those pairs.
	Paths int
	// Singles is the number of paths Select interned one at a time, on
	// pairs whose full set did not exist yet.
	Singles int
}

// Stats reports how much of the pair space has been materialized.
func (ps *PathStore) Stats() PathStoreStats {
	return PathStoreStats{
		Pairs:   int(ps.builtPairs.Load()),
		Paths:   int(ps.internedPaths.Load()),
		Singles: int(ps.singlePaths.Load()),
	}
}
