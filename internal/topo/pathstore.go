package topo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PathID identifies one interned ECMP path within a PathStore. The encoding
// is (ordered host-pair index << pathRankBits) | rank, where rank is the
// path's position in the pair's ECMP enumeration order — so IDs are a pure
// function of the topology and the lookup arguments, independent of the
// order in which pairs were first requested (or which goroutine built them).
type PathID uint64

// pathRankBits is the low-bit budget for the per-pair path rank. A k-ary
// fat-tree has at most (k/2)^2 equal-cost paths per pair, so 16 bits cover
// every k up to 512.
const pathRankBits = 16

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

	// pairs[src*numHosts+dst] holds what the pair has interned so far.
	// Reads are lock-free atomic loads; builds double-check under mu.
	pairs []atomic.Pointer[pairEntry]

	mu      sync.Mutex
	classes map[classKey]*classEntry

	builtPairs    atomic.Int64
	internedPaths atomic.Int64
	singlePaths   atomic.Int64
}

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
// once Paths, IDs or Path asked for it, and before that the paths Select
// built one at a time, by rank. An entry has at least one of the two; a full
// build replaces the entry (keeping single) rather than filling it in, so a
// loaded entry is immutable apart from the atomic slots of single.
type pairEntry struct {
	paths  []Path
	ids    []PathID
	single []atomic.Pointer[Path]
}

// NewPathStore returns an empty store over ft. Paths are built lazily on
// first lookup; FatTree.PathStore returns a per-topology shared instance.
func NewPathStore(ft *FatTree) *PathStore {
	n := ft.NumHosts()
	return &PathStore{
		ft:       ft,
		numHosts: n,
		pairs:    make([]atomic.Pointer[pairEntry], n*n),
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

// Paths returns the interned ECMP path set for the ordered host pair,
// bit-identical to FatTree.ECMPPaths. The slice and the paths it holds are
// shared and immutable. After the pair's first lookup the call is
// allocation-free.
func (ps *PathStore) Paths(srcHost, dstHost int) ([]Path, error) {
	e, err := ps.entry(srcHost, dstHost)
	if err != nil {
		return nil, err
	}
	return e.paths, nil
}

// IDs returns the pair's path identifiers, parallel to Paths.
func (ps *PathStore) IDs(srcHost, dstHost int) ([]PathID, error) {
	e, err := ps.entry(srcHost, dstHost)
	if err != nil {
		return nil, err
	}
	return e.ids, nil
}

// Path resolves an interned path by ID (building its pair if needed).
func (ps *PathStore) Path(id PathID) (Path, error) {
	idx := int(id >> pathRankBits)
	rank := int(id & (1<<pathRankBits - 1))
	if idx < 0 || idx >= len(ps.pairs) {
		return Path{}, fmt.Errorf("topo: PathID %#x: pair index out of range", uint64(id))
	}
	e, err := ps.entry(idx/ps.numHosts, idx%ps.numHosts)
	if err != nil {
		return Path{}, err
	}
	if rank >= len(e.paths) {
		return Path{}, fmt.Errorf("topo: PathID %#x: rank %d out of range (%d paths)", uint64(id), rank, len(e.paths))
	}
	return e.paths[rank], nil
}

// Select returns Paths(srcHost, dstHost)[hash % len(Paths(srcHost, dstHost))]
// and its PathID, bit-identical to the fully built set's entry, without
// building the set: on a pair's first lookup at a rank only that path is
// resolved — rank -> (aggregation, core) straight from the wiring accessors
// class enumerates with — and interned. Later lookups at the rank, and every
// lookup once the pair's full set exists, are lock-free and allocation-free.
func (ps *PathStore) Select(srcHost, dstHost int, hash uint64) (Path, PathID, error) {
	if err := ps.checkHostPair(srcHost, dstHost); err != nil {
		return Path{}, 0, err
	}
	idx := srcHost*ps.numHosts + dstHost
	e := ps.pairs[idx].Load()
	if e == nil {
		e = ps.touch(idx, srcHost, dstHost)
	}
	if e.paths != nil {
		rank := hash % uint64(len(e.paths))
		return e.paths[rank], e.ids[rank], nil
	}
	rank := int(hash % uint64(len(e.single)))
	p := e.single[rank].Load()
	if p == nil {
		var err error
		if p, err = ps.buildOne(e, srcHost, dstHost, rank); err != nil {
			return Path{}, 0, err
		}
	}
	return *p, PathID(uint64(idx)<<pathRankBits | uint64(rank)), nil
}

// touch gives a pair with nothing interned an entry with one empty slot per
// equal-cost path: one for a shared edge switch, k/2 inside a pod, (k/2)^2
// across pods.
func (ps *PathStore) touch(idx, srcHost, dstHost int) *pairEntry {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if e := ps.pairs[idx].Load(); e != nil {
		return e
	}
	ft := ps.ft
	es, ed := ft.hostEdge[srcHost], ft.hostEdge[dstHost]
	m := ft.Cfg.K / 2
	switch {
	case es == ed:
		m = 1
	case ft.Node(es).Pod != ft.Node(ed).Pod:
		m *= m
	}
	e := &pairEntry{single: make([]atomic.Pointer[Path], m)}
	ps.pairs[idx].Store(e)
	return e
}

// buildOne resolves and interns the pair's rank-th path in ECMPPaths order.
func (ps *PathStore) buildOne(e *pairEntry, srcHost, dstHost, rank int) (*Path, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if p := e.single[rank].Load(); p != nil {
		return p, nil
	}
	ft := ps.ft
	half := ft.Cfg.K / 2
	es, ed := ft.hostEdge[srcHost], ft.hostEdge[dstHost]
	sp, dp := ft.Node(es).Pod, ft.Node(ed).Pod
	s, d := ft.hosts[srcHost], ft.hosts[dstHost]
	var nodes []NodeID
	switch {
	case es == ed:
		nodes = []NodeID{s, es, d}
	case sp == dp:
		nodes = []NodeID{s, es, ft.agg[sp][rank], ed, d}
	default:
		ci := ft.coreIndexOfAgg(sp, rank/half, rank%half)
		nodes = []NodeID{s, es, ft.agg[sp][rank/half], ft.core[ci], ft.AggOfCoreInPod(ci, dp), ed, d}
	}
	p, err := buildPath(ft.Topology, nodes...)
	if err != nil {
		return nil, err
	}
	ps.singlePaths.Add(1)
	e.single[rank].Store(&p)
	return &p, nil
}

// entry returns the pair's entry with the full path set built.
func (ps *PathStore) entry(srcHost, dstHost int) (*pairEntry, error) {
	if err := ps.checkHostPair(srcHost, dstHost); err != nil {
		return nil, err
	}
	idx := srcHost*ps.numHosts + dstHost
	if e := ps.pairs[idx].Load(); e != nil && e.paths != nil {
		return e, nil
	}
	return ps.build(idx, srcHost, dstHost)
}

// build materializes one pair's path set under the store lock: resolve the
// pair's class interior (enumerating it on the class's first appearance),
// then stamp the pair's endpoints and access links into fresh slabs.
func (ps *PathStore) build(idx, srcHost, dstHost int) (*pairEntry, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	old := ps.pairs[idx].Load()
	if old != nil && old.paths != nil {
		return old, nil
	}
	ft := ps.ft
	es, ed := ft.hostEdge[srcHost], ft.hostEdge[dstHost]
	cls, err := ps.class(es, ed)
	if err != nil {
		return nil, err
	}
	m := cls.paths
	if m == 0 || m >= 1<<pathRankBits {
		return nil, fmt.Errorf("topo: PathStore: %d paths for pair (%d, %d) outside the PathID rank range", m, srcHost, dstHost)
	}
	s, d := ft.hosts[srcHost], ft.hosts[dstHost]
	sl, dl := ft.LinkBetween(s, es), ft.LinkBetween(d, ed)
	if sl == NoLink || dl == NoLink {
		return nil, fmt.Errorf("topo: PathStore: host (%d, %d) missing access link", srcHost, dstHost)
	}
	// One slab per pair; each path gets a full-capacity subslice so an
	// (erroneous) append on a returned path cannot clobber its neighbor.
	cn, cl := cls.nn, cls.nn-1
	nn, nl := cn+2, cl+2
	nodesSlab := make([]NodeID, m*nn)
	linksSlab := make([]LinkID, m*nl)
	e := &pairEntry{paths: make([]Path, m), ids: make([]PathID, m)}
	if old != nil {
		e.single = old.single
	}
	for i := 0; i < m; i++ {
		nv := nodesSlab[i*nn : (i+1)*nn : (i+1)*nn]
		lv := linksSlab[i*nl : (i+1)*nl : (i+1)*nl]
		nv[0] = s
		copy(nv[1:], cls.nodes[i*cn:(i+1)*cn])
		nv[nn-1] = d
		lv[0] = sl
		copy(lv[1:], cls.links[i*cl:(i+1)*cl])
		lv[nl-1] = dl
		e.paths[i] = Path{Nodes: nv, Links: lv}
		e.ids[i] = PathID(uint64(idx)<<pathRankBits | uint64(i))
	}
	ps.builtPairs.Add(1)
	ps.internedPaths.Add(int64(m))
	ps.pairs[idx].Store(e)
	return e, nil
}

// class resolves the (es, ed) interior, enumerating it on first use
// straight from the wiring accessors ECMPPaths walks, in ECMPPaths order:
// one segment for a shared edge switch, one per aggregation switch inside a
// pod, one per (aggregation, core) pair across pods. Segments of a class
// share most of their links — every inter-pod segment through one source
// aggregation switch starts on the same uplink, and all segments descend on
// one of k/2 downlinks — so each distinct link is resolved once rather than
// once per segment it appears on. Callers hold ps.mu.
func (ps *PathStore) class(es, ed NodeID) (*classEntry, error) {
	key := classKey{es, ed}
	if c, ok := ps.classes[key]; ok {
		return c, nil
	}
	ft := ps.ft
	half := ft.Cfg.K / 2
	sp, dp := ft.Node(es).Pod, ft.Node(ed).Pod
	var c *classEntry
	switch {
	case es == ed:
		c = &classEntry{paths: 1, nn: 1, nodes: []NodeID{es}}
	case sp == dp:
		c = &classEntry{paths: half, nn: 3, nodes: make([]NodeID, 0, half*3), links: make([]LinkID, 0, half*2)}
		for _, a := range ft.agg[sp] {
			c.nodes = append(c.nodes, es, a, ed)
			c.links = append(c.links, ft.LinkBetween(es, a), ft.LinkBetween(a, ed))
		}
	default:
		m := half * half
		c = &classEntry{paths: m, nn: 5, nodes: make([]NodeID, 0, m*5), links: make([]LinkID, 0, m*4)}
		// The last hop depends only on which destination-pod aggregation
		// switch a core descends to.
		down := make([]LinkID, half)
		for j, a := range ft.agg[dp] {
			down[j] = ft.LinkBetween(a, ed)
		}
		for s, up := range ft.agg[sp] {
			first := ft.LinkBetween(es, up)
			for t := 0; t < half; t++ {
				ci := ft.coreIndexOfAgg(sp, s, t)
				core := ft.core[ci]
				j := ft.aggIndexOfCore(ci, dp)
				dn := ft.agg[dp][j]
				c.nodes = append(c.nodes, es, up, core, dn, ed)
				c.links = append(c.links, first, ft.LinkBetween(up, core), ft.LinkBetween(core, dn), down[j])
			}
		}
	}
	for _, l := range c.links {
		if l == NoLink {
			return nil, fmt.Errorf("topo: PathStore: class (%s, %s) crosses a missing link", ft.Node(es).Name(), ft.Node(ed).Name())
		}
	}
	ps.classes[key] = c
	return c, nil
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
