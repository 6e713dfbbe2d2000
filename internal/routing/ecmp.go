package routing

import (
	"fmt"

	"sharebackup/internal/topo"
)

// ECMP assigns flows to equal-cost paths by flow hash, the baseline routing
// of the paper's failure study (Section 2.2: "Fat-tree and F10 both use ECMP
// routing").
type ECMP struct {
	FT   *topo.FatTree
	Seed uint64
}

// hash64 mixes a flow identifier with the seed (splitmix64 finalizer). ECMP
// in practice hashes the five-tuple; here the caller supplies a stable flow
// ID.
func (e *ECMP) hash64(flowID uint64) uint64 {
	x := flowID + 0x9e3779b97f4a7c15 + e.Seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PathFor returns the ECMP path for the flow between two hosts (by global
// host index): the equal-cost path at rank hash mod path count. Paths come
// from the topology's interned PathStore, which builds only the selected
// path; after the first lookup of a pair at that rank the call is an
// allocation-free table lookup returning an immutable shared path (clone
// before mutating).
func (e *ECMP) PathFor(src, dst int, flowID uint64) (topo.Path, error) {
	return e.FT.PathStore().Select(src, dst, e.hash64(flowID))
}

// LinkLoad counts flows assigned per link; the rerouting strategies use it
// to pick the least congested alternative.
type LinkLoad []int

// NewLinkLoad returns a zeroed load vector sized for t.
func NewLinkLoad(t *topo.Topology) LinkLoad { return make(LinkLoad, t.NumLinks()) }

// Add applies delta flows along every link of p.
func (ll LinkLoad) Add(p topo.Path, delta int) {
	for _, l := range p.Links {
		ll[l] += delta
	}
}

// MaxOnInterior returns the highest per-link flow count along p excluding
// its first and last links. For host-to-host paths those are the access
// links every alternative shares, so only the interior distinguishes
// candidate paths.
func (ll LinkLoad) MaxOnInterior(p topo.Path) int {
	max := 0
	for i, l := range p.Links {
		if i == 0 || i == len(p.Links)-1 {
			continue
		}
		if ll[l] > max {
			max = ll[l]
		}
	}
	return max
}

// Scratch holds reusable per-worker state for the reroute strategies so a
// reroute storm does not allocate an avoid-set per broken flow. The zero
// value is ready to use; a Scratch must not be shared between goroutines.
type Scratch struct {
	avoid *topo.Blocked
}

// avoidSet returns the scratch's avoid set primed with a copy of blocked.
// A nil receiver falls back to a fresh allocation.
func (s *Scratch) avoidSet(blocked *topo.Blocked) *topo.Blocked {
	if s == nil {
		b := topo.NewBlocked()
		b.CopyFrom(blocked)
		return b
	}
	if s.avoid == nil {
		s.avoid = topo.NewBlocked()
	}
	s.avoid.CopyFrom(blocked)
	return s.avoid
}

// GlobalOptimalReroute is the fat-tree baseline of Figure 1(c): when a
// flow's path is broken, the (idealized, globally informed) routing picks
// the surviving equal-cost path with the lowest load. There is no path
// dilation, but the flow competes for the remaining bandwidth, and the
// repair happens upstream (the source edge switch changes the whole path).
// ok is false when no equal-cost path survives — e.g. the destination's
// edge switch is down.
func GlobalOptimalReroute(ft *topo.FatTree, src, dst int, blocked *topo.Blocked, load LinkLoad) (topo.Path, bool) {
	paths, err := ft.PathStore().Paths(src, dst)
	if err != nil {
		return topo.Path{}, false
	}
	best := -1
	bestLoad := 0
	for i, p := range paths {
		if !blocked.PathOK(p) {
			continue
		}
		l := load.MaxOnInterior(p)
		if best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best < 0 {
		return topo.Path{}, false
	}
	return paths[best], true
}

// F10LocalReroute is the F10 baseline of Figure 1(c): the switch adjacent to
// the failure repairs the path locally, splicing in a detour around the
// failed element while keeping the rest of the original path. Local repair
// is fast and requires no upstream notification, but the detour is longer
// (typically +2 hops) and concentrates load near the failure — the paper
// measures F10's CCT suffering more than fat-tree's for exactly this reason.
// ok is false when no local detour exists. scratch may be nil; passing one
// reuses its avoid set across calls.
func F10LocalReroute(ft *topo.FatTree, orig topo.Path, blocked *topo.Blocked, scratch *Scratch) (topo.Path, bool) {
	p := orig.Clone()
	// A path may cross several failed elements (or the detour may be
	// broken too); repair iteratively with a small bound.
	for iter := 0; iter < 4; iter++ {
		idx, isNode := firstBroken(p, blocked)
		if idx < 0 {
			return p, true
		}
		var ok bool
		p, ok = spliceDetour(ft, p, idx, isNode, blocked, scratch)
		if !ok {
			return topo.Path{}, false
		}
	}
	// Still broken after the iteration bound.
	if idx, _ := firstBroken(p, blocked); idx >= 0 {
		return topo.Path{}, false
	}
	return p, true
}

// firstBroken locates the first failed element on p. It returns the index of
// the failed node in p.Nodes (isNode=true), or the index of the failed
// link's upstream node (isNode=false). idx = -1 means the path is clean.
func firstBroken(p topo.Path, blocked *topo.Blocked) (idx int, isNode bool) {
	if blocked == nil {
		return -1, false
	}
	for i, n := range p.Nodes {
		if blocked.NodeBlocked(n) {
			return i, true
		}
		if i < len(p.Links) && blocked.LinkBlocked(p.Links[i]) {
			return i, false
		}
	}
	return -1, false
}

// spliceDetour replaces the failed element after/at position idx with a
// local detour: a shortest path from the node immediately upstream of the
// failure to the node immediately downstream, avoiding every blocked element
// and every node already used earlier on the path (no loops).
func spliceDetour(ft *topo.FatTree, p topo.Path, idx int, isNode bool, blocked *topo.Blocked, scratch *Scratch) (topo.Path, bool) {
	var uIdx, wIdx int // indices into p.Nodes: detour endpoints
	if isNode {
		uIdx, wIdx = idx-1, idx+1
	} else {
		uIdx, wIdx = idx, idx+1
	}
	if uIdx < 0 || wIdx >= len(p.Nodes) {
		// The failure touches an endpoint (host or its access link):
		// nothing local routing can do.
		return topo.Path{}, false
	}
	// Forbid revisiting upstream nodes (and the failed downstream
	// remainder's duplicates are impossible since fat-tree paths are
	// simple).
	avoid := scratch.avoidSet(blocked)
	for i := 0; i < uIdx; i++ {
		avoid.BlockNode(p.Nodes[i])
	}
	detour, ok := ft.ShortestPath(p.Nodes[uIdx], p.Nodes[wIdx], avoid)
	if !ok {
		return topo.Path{}, false
	}
	out := topo.Path{
		Nodes: append(append([]topo.NodeID(nil), p.Nodes[:uIdx]...), detour.Nodes...),
		Links: append(append([]topo.LinkID(nil), p.Links[:uIdx]...), detour.Links...),
	}
	out.Nodes = append(out.Nodes, p.Nodes[wIdx+1:]...)
	out.Links = append(out.Links, p.Links[wIdx:]...)
	if len(out.Links) != len(out.Nodes)-1 {
		// Defensive: a malformed splice would corrupt the simulation.
		panic(fmt.Sprintf("routing: spliced path invariant broken: %d nodes, %d links", len(out.Nodes), len(out.Links)))
	}
	return out, true
}
