package topo

import (
	"fmt"
	"math/rand"
)

// JellyfishConfig describes a Jellyfish network (Singla et al., NSDI'12):
// N switches of K ports each, R of them wired into a random regular graph,
// the remaining K-R facing hosts. The paper's conclusion names Jellyfish as
// the unstructured target for non-uniform failure groups.
type JellyfishConfig struct {
	// Switches is the number of switches (N).
	Switches int
	// Ports is the switch port count (K).
	Ports int
	// NetDegree is the number of ports per switch wired to other switches
	// (R); the rest face hosts.
	NetDegree int
	// Seed drives the random wiring.
	Seed int64
}

// jellyfishCapacity is the capacity of every Jellyfish link, switch to
// switch and host to switch.
const jellyfishCapacity = 1

func (c *JellyfishConfig) check() error {
	if c.Switches < 2 {
		return fmt.Errorf("topo: jellyfish needs >= 2 switches, got %d", c.Switches)
	}
	if c.NetDegree < 1 || c.NetDegree >= c.Switches {
		return fmt.Errorf("topo: jellyfish net degree %d out of range [1, %d)", c.NetDegree, c.Switches)
	}
	if c.Ports < c.NetDegree {
		return fmt.Errorf("topo: jellyfish ports %d < net degree %d", c.Ports, c.NetDegree)
	}
	if c.Switches*c.NetDegree%2 != 0 {
		return fmt.Errorf("topo: jellyfish switches*degree = %d*%d must be even", c.Switches, c.NetDegree)
	}
	return nil
}

// Jellyfish is a built random-graph topology. Switches are modeled as edge
// switches (they all face hosts); hosts hang off each switch's spare ports.
type Jellyfish struct {
	*Topology
	Cfg      JellyfishConfig
	switches []NodeID
}

// NewJellyfish builds a Jellyfish network using the standard incremental
// random-matching construction with edge swaps to place the last stubs.
func NewJellyfish(cfg JellyfishConfig) (*Jellyfish, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jf := &Jellyfish{Topology: &Topology{}, Cfg: cfg}
	for i := 0; i < cfg.Switches; i++ {
		jf.switches = append(jf.switches, jf.AddNode(KindEdge, -1, i))
	}

	// Random regular graph: repeatedly connect two random switches with
	// free stubs; when stuck, swap with an existing link.
	free := make([]int, cfg.Switches) // free network stubs per switch
	for i := range free {
		free[i] = cfg.NetDegree
	}
	remaining := cfg.Switches * cfg.NetDegree / 2
	for attempts := 0; remaining > 0; attempts++ {
		if attempts > 100000 {
			return nil, fmt.Errorf("topo: jellyfish wiring did not converge")
		}
		cands := candidatesWithStubs(free)
		if len(cands) == 0 {
			break
		}
		a := cands[rng.Intn(len(cands))]
		b := cands[rng.Intn(len(cands))]
		if a == b || jf.LinkBetween(jf.switches[a], jf.switches[b]) != NoLink {
			// If only unconnectable stubs remain, perform the
			// Jellyfish edge swap: remove a random existing link
			// (x, y) with x,y distinct from a,b, then wire a-x and
			// b-y.
			if !jf.trySwap(rng, free, a, b) {
				continue
			}
			remaining--
			continue
		}
		if _, err := jf.AddLink(jf.switches[a], jf.switches[b], jellyfishCapacity); err != nil {
			return nil, err
		}
		free[a]--
		free[b]--
		remaining--
	}

	// Hosts on the spare ports.
	hostPorts := cfg.Ports - cfg.NetDegree
	for i := 0; i < cfg.Switches; i++ {
		for h := 0; h < hostPorts; h++ {
			id := jf.AddNode(KindHost, -1, i*hostPorts+h)
			if _, err := jf.AddLink(id, jf.switches[i], jellyfishCapacity); err != nil {
				return nil, err
			}
		}
	}
	return jf, nil
}

func candidatesWithStubs(free []int) []int {
	var out []int
	for i, f := range free {
		if f > 0 {
			out = append(out, i)
		}
	}
	return out
}

// trySwap implements the Jellyfish stuck-stub resolution. It returns true if
// one stub pair was consumed.
func (jf *Jellyfish) trySwap(rng *rand.Rand, free []int, a, b int) bool {
	if a == b {
		// Single switch with >= 2 free stubs: break an existing link
		// (x, y) not touching a, then connect a-x and a-y.
		if free[a] < 2 || len(jf.Links) == 0 {
			return false
		}
		for tries := 0; tries < 50; tries++ {
			l := jf.Links[rng.Intn(len(jf.Links))]
			x, y := l.A, l.B
			na, xa := jf.Node(x), jf.Node(y)
			if na.Kind != KindEdge || xa.Kind != KindEdge {
				continue
			}
			if x == jf.switches[a] || y == jf.switches[a] {
				continue
			}
			if jf.LinkBetween(jf.switches[a], x) != NoLink || jf.LinkBetween(jf.switches[a], y) != NoLink {
				continue
			}
			jf.removeLink(l.ID)
			if _, err := jf.AddLink(jf.switches[a], x, jellyfishCapacity); err != nil {
				return false
			}
			if _, err := jf.AddLink(jf.switches[a], y, jellyfishCapacity); err != nil {
				return false
			}
			free[a] -= 2
			return true
		}
		return false
	}
	// a-b already linked: break (x, y) and rewire a-x, b-y.
	for tries := 0; tries < 50; tries++ {
		l := jf.Links[rng.Intn(len(jf.Links))]
		x, y := l.A, l.B
		if jf.Node(x).Kind != KindEdge || jf.Node(y).Kind != KindEdge {
			continue
		}
		if x == jf.switches[a] || x == jf.switches[b] || y == jf.switches[a] || y == jf.switches[b] {
			continue
		}
		if jf.LinkBetween(jf.switches[a], x) != NoLink || jf.LinkBetween(jf.switches[b], y) != NoLink {
			continue
		}
		jf.removeLink(l.ID)
		if _, err := jf.AddLink(jf.switches[a], x, jellyfishCapacity); err != nil {
			return false
		}
		if _, err := jf.AddLink(jf.switches[b], y, jellyfishCapacity); err != nil {
			return false
		}
		free[a]--
		free[b]--
		return true
	}
	return false
}

// removeLink deletes a link. Link IDs are reassigned (the slice is
// compacted), so this is only safe during construction, before IDs escape.
func (jf *Jellyfish) removeLink(id LinkID) {
	l := jf.Links[id]
	jf.adj[l.A] = removeFrom(jf.adj[l.A], id)
	jf.adj[l.B] = removeFrom(jf.adj[l.B], id)
	delete(jf.byPair, pairKey(l.A, l.B))
	last := LinkID(len(jf.Links) - 1)
	if id != last {
		moved := jf.Links[last]
		moved.ID = id
		jf.Links[id] = moved
		jf.adj[moved.A] = replaceIn(jf.adj[moved.A], last, id)
		jf.adj[moved.B] = replaceIn(jf.adj[moved.B], last, id)
		jf.byPair[pairKey(moved.A, moved.B)] = id
	}
	jf.Links = jf.Links[:last]
}

func removeFrom(s []LinkID, id LinkID) []LinkID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func replaceIn(s []LinkID, old, new LinkID) []LinkID {
	for i, v := range s {
		if v == old {
			s[i] = new
		}
	}
	return s
}
