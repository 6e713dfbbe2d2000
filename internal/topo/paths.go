package topo

import "fmt"

// Path is a loop-free walk through the topology. Nodes has one more element
// than Links; Links[i] joins Nodes[i] and Nodes[i+1].
type Path struct {
	Nodes []NodeID
	Links []LinkID
}

// Hops returns the number of links on the path.
func (p Path) Hops() int { return len(p.Links) }

// Contains reports whether the path traverses node n.
func (p Path) Contains(n NodeID) bool {
	for _, v := range p.Nodes {
		if v == n {
			return true
		}
	}
	return false
}

// ContainsLink reports whether the path traverses link l.
func (p Path) ContainsLink(l LinkID) bool {
	for _, v := range p.Links {
		if v == l {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	return Path{Nodes: append([]NodeID(nil), p.Nodes...), Links: append([]LinkID(nil), p.Links...)}
}

// buildPath converts a node walk into a Path, resolving link IDs.
func buildPath(t *Topology, nodes ...NodeID) (Path, error) {
	p := Path{Nodes: nodes, Links: make([]LinkID, 0, len(nodes)-1)}
	for i := 0; i+1 < len(nodes); i++ {
		l := t.LinkBetween(nodes[i], nodes[i+1])
		if l == NoLink {
			return Path{}, fmt.Errorf("topo: no link between %s and %s",
				t.Node(nodes[i]).Name(), t.Node(nodes[i+1]).Name())
		}
		p.Links = append(p.Links, l)
	}
	return p, nil
}

// ECMPPaths enumerates all equal-cost shortest paths between two distinct
// hosts, identified by global host index. The paths follow the up-down
// structure of the Clos network: same edge -> 2 hops, same pod -> 4 hops via
// any shared aggregation switch, different pods -> 6 hops via any
// (aggregation, core) pair reachable from the source edge.
//
// Every call re-enumerates and allocates fresh paths; hot paths should use
// the interned PathStore (FatTree.PathStore), which returns bit-identical
// paths without allocating.
func (ft *FatTree) ECMPPaths(srcHost, dstHost int) ([]Path, error) {
	if srcHost == dstHost {
		return nil, fmt.Errorf("topo: ECMPPaths: src and dst are the same host %d", srcHost)
	}
	if srcHost < 0 || srcHost >= len(ft.hosts) || dstHost < 0 || dstHost >= len(ft.hosts) {
		return nil, fmt.Errorf("topo: ECMPPaths(%d, %d): host index out of range", srcHost, dstHost)
	}
	s, d := ft.hosts[srcHost], ft.hosts[dstHost]
	es, ed := ft.hostEdge[srcHost], ft.hostEdge[dstHost]

	if es == ed {
		p, err := buildPath(ft.Topology, s, es, d)
		if err != nil {
			return nil, err
		}
		return []Path{p}, nil
	}

	sn, dn := ft.Node(es), ft.Node(ed)
	half := ft.Cfg.K / 2
	if sn.Pod == dn.Pod {
		paths := make([]Path, 0, half)
		for a := 0; a < half; a++ {
			p, err := buildPath(ft.Topology, s, es, ft.agg[sn.Pod][a], ed, d)
			if err != nil {
				return nil, err
			}
			paths = append(paths, p)
		}
		return paths, nil
	}

	paths := make([]Path, 0, half*half)
	for a := 0; a < half; a++ {
		up := ft.agg[sn.Pod][a]
		for _, c := range ft.CoreIndicesOfAgg(sn.Pod, a) {
			down := ft.AggOfCoreInPod(c, dn.Pod)
			p, err := buildPath(ft.Topology, s, es, up, ft.core[c], down, ed, d)
			if err != nil {
				return nil, err
			}
			paths = append(paths, p)
		}
	}
	return paths, nil
}

// bitset is a growable bit vector over a dense non-negative index space.
type bitset []uint64

func (b bitset) get(i int) bool {
	w := i >> 6
	// The uint cast folds negative indices (NodeID None / NoLink sentinels)
	// into the out-of-range branch: they are simply never blocked.
	return uint(w) < uint(len(b)) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b *bitset) set(i int) {
	if i < 0 {
		panic(fmt.Sprintf("topo: bitset: negative index %d", i))
	}
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

// Blocked reports which topology elements are unavailable to a path search.
// The sets are bitsets over the dense NodeID/LinkID spaces, so membership
// tests are branch-and-mask instead of map lookups and a set can be Reset
// and reused across trials without reallocating. A nil *Blocked blocks
// nothing and is valid for every query method.
type Blocked struct {
	nodes bitset
	links bitset
}

// NewBlocked returns an empty Blocked set.
func NewBlocked() *Blocked { return &Blocked{} }

// BlockNode marks a node (and implicitly all its links) unusable.
func (b *Blocked) BlockNode(n NodeID) { b.nodes.set(int(n)) }

// BlockLink marks a link unusable.
func (b *Blocked) BlockLink(l LinkID) { b.links.set(int(l)) }

// NodeBlocked reports whether node n is blocked.
func (b *Blocked) NodeBlocked(n NodeID) bool { return b != nil && b.nodes.get(int(n)) }

// LinkBlocked reports whether link l is blocked.
func (b *Blocked) LinkBlocked(l LinkID) bool { return b != nil && b.links.get(int(l)) }

// Reset clears every block, keeping the backing storage for reuse.
func (b *Blocked) Reset() {
	b.nodes.reset()
	b.links.reset()
}

// CopyFrom makes b an exact copy of src (nil src clears b), reusing b's
// storage. It replaces the per-element copy loops reroute scratch sets used
// to need with two word-level copies.
func (b *Blocked) CopyFrom(src *Blocked) {
	if src == nil {
		b.nodes = b.nodes[:0]
		b.links = b.links[:0]
		return
	}
	b.nodes = append(b.nodes[:0], src.nodes...)
	b.links = append(b.links[:0], src.links...)
}

// PathOK reports whether p avoids every blocked node and link.
func (b *Blocked) PathOK(p Path) bool {
	if b == nil {
		return true
	}
	for _, n := range p.Nodes {
		if b.nodes.get(int(n)) {
			return false
		}
	}
	for _, l := range p.Links {
		if b.links.get(int(l)) {
			return false
		}
	}
	return true
}

// bfsScratch is the pooled per-search state of ShortestPath. Visited marks
// are epoch stamps, so reusing the scratch costs one counter increment
// instead of clearing the arrays.
type bfsScratch struct {
	prevNode []NodeID
	prevLink []LinkID
	seen     []uint32
	epoch    uint32
	queue    []NodeID
}

// getBFSScratch checks a scratch out of the topology's pool, sized for the
// current node count and with a fresh epoch.
func (t *Topology) getBFSScratch() *bfsScratch {
	s, _ := t.bfsPool.Get().(*bfsScratch)
	if s == nil {
		s = &bfsScratch{}
	}
	if len(s.seen) < len(t.Nodes) {
		s.prevNode = make([]NodeID, len(t.Nodes))
		s.prevLink = make([]LinkID, len(t.Nodes))
		s.seen = make([]uint32, len(t.Nodes))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	return s
}

// ShortestPath runs a breadth-first search from a to z avoiding blocked
// elements. Endpoints themselves must not be blocked. It returns ok=false if
// z is unreachable. The search scratch is pooled per topology; only the
// returned path allocates.
func (t *Topology) ShortestPath(a, z NodeID, blocked *Blocked) (Path, bool) {
	if blocked.NodeBlocked(a) || blocked.NodeBlocked(z) {
		return Path{}, false
	}
	if a == z {
		return Path{Nodes: []NodeID{a}}, true
	}
	s := t.getBFSScratch()
	defer t.bfsPool.Put(s)
	s.seen[a] = s.epoch
	s.queue = append(s.queue, a)
	for qi := 0; qi < len(s.queue); qi++ {
		cur := s.queue[qi]
		for _, lid := range t.adj[cur] {
			if blocked.LinkBlocked(lid) {
				continue
			}
			next := t.Links[lid].Other(cur)
			if s.seen[next] == s.epoch || blocked.NodeBlocked(next) {
				continue
			}
			s.seen[next] = s.epoch
			s.prevNode[next] = cur
			s.prevLink[next] = lid
			if next == z {
				return tracePath(s.prevNode, s.prevLink, a, z), true
			}
			s.queue = append(s.queue, next)
		}
	}
	return Path{}, false
}

// tracePath reconstructs the found path into exact-size fresh slices (the
// result escapes to the caller; the scratch does not).
func tracePath(prevNode []NodeID, prevLink []LinkID, a, z NodeID) Path {
	n := 1
	for cur := z; cur != a; cur = prevNode[cur] {
		n++
	}
	nodes := make([]NodeID, n)
	links := make([]LinkID, n-1)
	nodes[0] = a
	i := n - 1
	for cur := z; cur != a; cur = prevNode[cur] {
		nodes[i] = cur
		links[i-1] = prevLink[cur]
		i--
	}
	return Path{Nodes: nodes, Links: links}
}

// Connected reports whether z is reachable from a avoiding blocked elements.
func (t *Topology) Connected(a, z NodeID, blocked *Blocked) bool {
	_, ok := t.ShortestPath(a, z, blocked)
	return ok
}
