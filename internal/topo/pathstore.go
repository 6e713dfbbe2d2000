package topo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PathStore interns the ECMP path sets of a fat-tree: each ordered host
// pair's equal-cost paths are enumerated once, stored in shared backing
// slabs, and handed out as immutable views. Lookups after the first are
// lock-free and allocation-free — the hot-path contract ECMP routing and the
// reroute strategies rely on during failure sweeps. A caller that wants one
// path of a pair (ECMP hashing a flow onto it) uses Select, which builds and
// interns only that path.
//
// Interning exploits fat-tree symmetry: the interior of every path (source
// edge switch through the agg/core pattern to the destination edge switch)
// depends only on the (src-edge, dst-edge) class, not on which hosts under
// those edges are talking. The store enumerates each class once and stamps
// per-pair paths from the class's interior plus the pair's two access links,
// so the expensive graph walk runs once per class rather than once per pair
// (and never at lookup time).
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

	mu      sync.Mutex
	classes map[classKey]*classEntry

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

// classKey identifies an edge-pair equivalence class.
type classKey struct{ es, ed NodeID }

// classEntry is the host-independent interior of one class: every equal-cost
// src-edge → ... → dst-edge segment, in ECMPPaths enumeration order. All
// segments of a class have equal length (the paths are equal-cost), so they
// sit back to back in one slab per kind: segment i is nodes[i*nn:(i+1)*nn]
// and links[i*(nn-1):(i+1)*(nn-1)].
type classEntry struct {
	paths int // number of segments
	nn    int // nodes per segment (one more than links per segment)
	nodes []NodeID
	links []LinkID
}

// pairEntry is what one ordered host pair has interned: the full path set
// once Paths asked for it, and before that the paths Select built one at a
// time, sorted by rank. A published entry is immutable; interning more of
// the pair replaces it.
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
		classes:  make(map[classKey]*classEntry),
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
// a pair's first lookup at a rank only that path is resolved — rank ->
// (aggregation, core) straight from the wiring accessors class enumerates
// with — and interned. Later lookups at the rank, and every lookup once the
// pair's full set exists, are lock-free and allocation-free.
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

// buildOne resolves and interns the one path of the pair that hash selects,
// by its rank in ECMPPaths order: one path for a shared edge switch, k/2
// inside a pod, (k/2)^2 across pods. The pair's entry is replaced by one
// whose rank-sorted list holds the new path too.
func (ps *PathStore) buildOne(srcHost, dstHost int, hash uint64) Path {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ft := ps.ft
	half := ft.Cfg.K / 2
	es, ed := ft.Node(ft.hostEdge[srcHost]), ft.Node(ft.hostEdge[dstHost])
	count := half
	switch {
	case es.ID == ed.ID:
		count = 1
	case es.Pod != ed.Pod:
		count = half * half
	}
	rank := int(hash % uint64(count))
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
	s, d := ft.hosts[srcHost], ft.hosts[dstHost]
	sl, dl := ft.hostLink[srcHost], ft.hostLink[dstHost]
	var p Path
	switch {
	case es.ID == ed.ID:
		p = Path{Nodes: []NodeID{s, es.ID, d}, Links: []LinkID{sl, dl}}
	case es.Pod == ed.Pod:
		p = Path{
			Nodes: []NodeID{s, es.ID, ft.agg[es.Pod][rank], ed.ID, d},
			Links: []LinkID{sl, ft.edgeAggLink(es.Pod, es.Index, rank), ft.edgeAggLink(ed.Pod, ed.Index, rank), dl},
		}
	default:
		up, t := rank/half, rank%half
		ci := ft.coreIndexOfAgg(es.Pod, up, t)
		dn := ft.aggIndexOfCore(ci, ed.Pod)
		p = Path{
			Nodes: []NodeID{s, es.ID, ft.agg[es.Pod][up], ft.core[ci], ft.agg[ed.Pod][dn], ed.ID, d},
			Links: []LinkID{sl, ft.edgeAggLink(es.Pod, es.Index, up), ft.aggCoreLink(es.Pod, up, t),
				ft.aggCoreLink(ed.Pod, dn, ft.coreSlotOfAgg(ed.Pod, ci)), ft.edgeAggLink(ed.Pod, ed.Index, dn), dl},
		}
	}
	grown := make([]rankedPath, len(single)+1)
	copy(grown, single[:at])
	grown[at] = rankedPath{rank, p}
	copy(grown[at+1:], single[at:])
	ps.singlePaths.Add(1)
	slot.Store(&pairEntry{count: count, single: grown})
	return p
}

// build materializes one pair's path set under the store lock: resolve the
// pair's class interior (enumerating it on the class's first appearance),
// then stamp the pair's endpoints and access links into fresh slabs. The new
// entry drops what Select interned: it serves from the full set from now on.
func (ps *PathStore) build(srcHost, dstHost int) []Path {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	slot := ps.slot(srcHost, dstHost)
	if old := slot.Load(); old != nil && old.paths != nil {
		return old.paths
	}
	ft := ps.ft
	cls := ps.class(ft.hostEdge[srcHost], ft.hostEdge[dstHost])
	m := cls.paths
	s, d := ft.hosts[srcHost], ft.hosts[dstHost]
	sl, dl := ft.hostLink[srcHost], ft.hostLink[dstHost]
	// One slab per pair; each path gets a full-capacity subslice so an
	// (erroneous) append on a returned path cannot clobber its neighbor.
	cn, cl := cls.nn, cls.nn-1
	nn, nl := cn+2, cl+2
	nodesSlab := make([]NodeID, m*nn)
	linksSlab := make([]LinkID, m*nl)
	paths := make([]Path, m)
	for i := range paths {
		nv := nodesSlab[i*nn : (i+1)*nn : (i+1)*nn]
		lv := linksSlab[i*nl : (i+1)*nl : (i+1)*nl]
		nv[0] = s
		copy(nv[1:], cls.nodes[i*cn:(i+1)*cn])
		nv[nn-1] = d
		lv[0] = sl
		copy(lv[1:], cls.links[i*cl:(i+1)*cl])
		lv[nl-1] = dl
		paths[i] = Path{Nodes: nv, Links: lv}
	}
	ps.builtPairs.Add(1)
	ps.internedPaths.Add(int64(m))
	slot.Store(&pairEntry{paths: paths, count: m})
	return paths
}

// class resolves the (es, ed) interior, enumerating it on first use
// straight from the wiring accessors ECMPPaths walks, in ECMPPaths order:
// one segment for a shared edge switch, one per aggregation switch inside a
// pod, one per (aggregation, core) pair across pods. Every link comes from
// NewFatTree's link order (edgeAggLink, aggCoreLink), not from a node-pair
// lookup. Callers hold ps.mu.
func (ps *PathStore) class(esID, edID NodeID) *classEntry {
	key := classKey{esID, edID}
	if c, ok := ps.classes[key]; ok {
		return c
	}
	ft := ps.ft
	half := ft.Cfg.K / 2
	es, ed := ft.Node(esID), ft.Node(edID)
	var c *classEntry
	switch {
	case esID == edID:
		c = &classEntry{paths: 1, nn: 1, nodes: []NodeID{esID}}
	case es.Pod == ed.Pod:
		c = &classEntry{paths: half, nn: 3, nodes: make([]NodeID, 0, half*3), links: make([]LinkID, 0, half*2)}
		for a, agg := range ft.agg[es.Pod] {
			c.nodes = append(c.nodes, esID, agg, edID)
			c.links = append(c.links, ft.edgeAggLink(es.Pod, es.Index, a), ft.edgeAggLink(ed.Pod, ed.Index, a))
		}
	default:
		m := half * half
		c = &classEntry{paths: m, nn: 5, nodes: make([]NodeID, 0, m*5), links: make([]LinkID, 0, m*4)}
		for s, up := range ft.agg[es.Pod] {
			first := ft.edgeAggLink(es.Pod, es.Index, s)
			for t := 0; t < half; t++ {
				ci := ft.coreIndexOfAgg(es.Pod, s, t)
				j := ft.aggIndexOfCore(ci, ed.Pod)
				c.nodes = append(c.nodes, esID, up, ft.core[ci], ft.agg[ed.Pod][j], edID)
				c.links = append(c.links, first, ft.aggCoreLink(es.Pod, s, t),
					ft.aggCoreLink(ed.Pod, j, ft.coreSlotOfAgg(ed.Pod, ci)), ft.edgeAggLink(ed.Pod, ed.Index, j))
			}
		}
	}
	ps.classes[key] = c
	return c
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
