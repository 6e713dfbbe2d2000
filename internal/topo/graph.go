package topo

import (
	"fmt"
	"math"
	"sync"
)

// LinkID identifies a link within one Topology. IDs are dense: they index
// into Topology.Links.
type LinkID int32

// NoLink is the sentinel for "no link".
const NoLink LinkID = -1

// Link is an undirected capacitated edge of the topology graph.
type Link struct {
	ID LinkID
	A  NodeID
	B  NodeID
	// Capacity is the link bandwidth in abstract capacity units
	// (the fluid simulator interprets them as bytes per second).
	Capacity float64
}

// Other returns the endpoint of l opposite to n. It panics if n is not an
// endpoint of l; callers always know which links touch which nodes.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("topo: node %d is not an endpoint of link %d (%d-%d)", n, l.ID, l.A, l.B))
}

type linkKey struct{ lo, hi NodeID }

func pairKey(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Topology is an undirected capacitated multigraph-free graph: at most one
// link joins any node pair. The zero value is an empty topology ready to use.
type Topology struct {
	Nodes []Node
	Links []Link

	adj    [][]LinkID
	byPair map[linkKey]LinkID

	// bfsPool recycles ShortestPath scratch (visit marks, predecessor
	// arrays, queue) across searches and goroutines.
	bfsPool sync.Pool
}

// AddNode appends a node of the given kind and returns its ID.
func (t *Topology) AddNode(kind Kind, pod, index int) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Pod: pod, Index: index})
	t.adj = append(t.adj, nil)
	return id
}

// AddLink joins a and b with a link of the given capacity and returns its ID.
// It returns an error if either node does not exist, a == b, capacity is not
// positive and finite, or the pair is already linked.
func (t *Topology) AddLink(a, b NodeID, capacity float64) (LinkID, error) {
	if !t.valid(a) || !t.valid(b) {
		return NoLink, fmt.Errorf("topo: AddLink(%d, %d): node out of range", a, b)
	}
	if a == b {
		return NoLink, fmt.Errorf("topo: AddLink: self-loop at node %d", a)
	}
	if !validCapacity(capacity) {
		return NoLink, fmt.Errorf("topo: AddLink(%d, %d): capacity %v must be positive and finite", a, b, capacity)
	}
	if t.byPair == nil {
		t.byPair = make(map[linkKey]LinkID)
	}
	key := pairKey(a, b)
	if _, dup := t.byPair[key]; dup {
		return NoLink, fmt.Errorf("topo: AddLink(%d, %d): pair already linked", a, b)
	}
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{ID: id, A: a, B: b, Capacity: capacity})
	t.adj[a] = append(t.adj[a], id)
	t.adj[b] = append(t.adj[b], id)
	t.byPair[key] = id
	return id, nil
}

// validCapacity reports whether c is a usable link capacity: positive and
// finite. NaN fails every comparison, and the fluid engine reserves +Inf as
// a sentinel.
func validCapacity(c float64) bool { return c > 0 && !math.IsInf(c, 1) }

func (t *Topology) valid(n NodeID) bool { return n >= 0 && int(n) < len(t.Nodes) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.Nodes[id] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.Links[id] }

// NumLinks returns the number of links.
func (t *Topology) NumLinks() int { return len(t.Links) }

// LinksOf returns the IDs of all links incident to n. The returned slice is
// owned by the topology and must not be modified.
func (t *Topology) LinksOf(n NodeID) []LinkID { return t.adj[n] }

// LinkBetween returns the link joining a and b, or NoLink if none exists.
func (t *Topology) LinkBetween(a, b NodeID) LinkID {
	if !t.valid(a) || !t.valid(b) {
		return NoLink
	}
	id, ok := t.byPair[pairKey(a, b)]
	if !ok {
		return NoLink
	}
	return id
}

// Degree returns the number of links incident to n.
func (t *Topology) Degree(n NodeID) int { return len(t.adj[n]) }

// NodesOfKind returns the IDs of all nodes of the given kind in ID order.
func (t *Topology) NodesOfKind(kind Kind) []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

// SwitchIDs returns the IDs of all packet switches (edge, agg, core) in ID
// order.
func (t *Topology) SwitchIDs() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind.IsSwitch() {
			out = append(out, n.ID)
		}
	}
	return out
}

// SwitchLinkIDs returns the IDs of all switch-to-switch links in ID order.
// Host-facing links are excluded; the paper's failure study injects link
// failures on the switching fabric.
func (t *Topology) SwitchLinkIDs() []LinkID {
	var out []LinkID
	for _, l := range t.Links {
		if t.Nodes[l.A].Kind.IsSwitch() && t.Nodes[l.B].Kind.IsSwitch() {
			out = append(out, l.ID)
		}
	}
	return out
}
