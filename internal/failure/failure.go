// Package failure provides failure injection and the availability arithmetic
// the paper draws on. The empirical grounding is Gill et al. (SIGCOMM'11):
// failures in data centers are rare (most devices show >99.99% availability),
// independent, and short (most last under five minutes) — the regime in
// which a small shared backup pool covers a large network (Section 5.1).
package failure

import (
	"fmt"
	"math"
	"math/rand"

	"sharebackup/internal/topo"
)

// SwitchAvailability is the paper's working availability figure: most
// devices have over 99.99% availability, i.e. a 0.01% failure rate.
const SwitchAvailability = 0.9999

// SwitchFailureRate is the corresponding instantaneous unavailability.
const SwitchFailureRate = 1 - SwitchAvailability

// Unavailability converts a mean-time-between-failures / mean-time-to-repair
// pair into steady-state unavailability MTTR / (MTBF + MTTR).
func Unavailability(mtbf, mttr float64) float64 {
	if mtbf <= 0 || mttr < 0 {
		return math.NaN()
	}
	return mttr / (mtbf + mttr)
}

// BinomialTail returns P[X > n] for X ~ Binomial(size, p): the probability
// that more than n of a failure group's `size` switches are down at once,
// i.e. that the group's n backups are insufficient.
func BinomialTail(size, n int, p float64) float64 {
	if size < 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	if n >= size {
		return 0
	}
	// Sum P[X = i] for i in [0, n], return the complement.
	cdf := 0.0
	for i := 0; i <= n && i <= size; i++ {
		cdf += math.Exp(logChoose(size, i) + float64(i)*math.Log(p) + float64(size-i)*math.Log1p(-p))
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}

func logChoose(n, k int) float64 {
	if k == 0 || k == n {
		return 0
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// ExpectedConcurrent returns the expected number of simultaneously failed
// switches among `count` devices with unavailability p.
func ExpectedConcurrent(count int, p float64) float64 { return float64(count) * p }

// Injector samples failures over a fat-tree.
type Injector struct {
	FT  *topo.FatTree
	Rng *rand.Rand
}

// NewInjector builds an injector with a deterministic seed.
func NewInjector(ft *topo.FatTree, seed int64) *Injector {
	return &Injector{FT: ft, Rng: rand.New(rand.NewSource(seed))}
}

// ReroutableSwitches returns the switches whose failure the rerouting
// baselines can in principle survive: aggregation and core switches. Edge
// switches are excluded because hosts in a plain fat-tree are single-homed —
// an edge failure disconnects its rack no matter how traffic is rerouted, so
// the paper's rerouting study (and ours) injects failures into the fabric
// above the edge.
func (in *Injector) ReroutableSwitches() []topo.NodeID {
	var out []topo.NodeID
	for _, n := range in.FT.Nodes {
		if n.Kind == topo.KindAgg || n.Kind == topo.KindCore {
			out = append(out, n.ID)
		}
	}
	return out
}

// FabricLinks returns all switch-to-switch links (failure candidates for
// link-failure experiments).
func (in *Injector) FabricLinks() []topo.LinkID { return in.FT.SwitchLinkIDs() }

// SampleNodes fails a deterministic fraction of the candidates:
// max(1, round(rate*len)) distinct nodes chosen uniformly. rate == 0 returns
// nil.
func (in *Injector) SampleNodes(candidates []topo.NodeID, rate float64) ([]topo.NodeID, error) {
	count, err := sampleCount(len(candidates), rate)
	if err != nil || count == 0 {
		return nil, err
	}
	perm := in.Rng.Perm(len(candidates))
	out := make([]topo.NodeID, count)
	for i := 0; i < count; i++ {
		out[i] = candidates[perm[i]]
	}
	return out, nil
}

// SampleLinks fails a deterministic fraction of the candidate links.
func (in *Injector) SampleLinks(candidates []topo.LinkID, rate float64) ([]topo.LinkID, error) {
	count, err := sampleCount(len(candidates), rate)
	if err != nil || count == 0 {
		return nil, err
	}
	perm := in.Rng.Perm(len(candidates))
	out := make([]topo.LinkID, count)
	for i := 0; i < count; i++ {
		out[i] = candidates[perm[i]]
	}
	return out, nil
}

func sampleCount(n int, rate float64) (int, error) {
	if rate < 0 || rate > 1 || math.IsNaN(rate) {
		return 0, fmt.Errorf("failure: rate %v outside [0, 1]", rate)
	}
	if rate == 0 || n == 0 {
		return 0, nil
	}
	count := int(math.Round(rate * float64(n)))
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	return count, nil
}

// Blocked converts failed elements into a path filter.
func Blocked(nodes []topo.NodeID, links []topo.LinkID) *topo.Blocked {
	b := topo.NewBlocked()
	BlockedInto(b, nodes, links)
	return b
}

// BlockedInto resets b and fills it with the failed elements, so trial loops
// can reuse one allocation instead of building a fresh set per scenario.
func BlockedInto(b *topo.Blocked, nodes []topo.NodeID, links []topo.LinkID) {
	b.Reset()
	for _, n := range nodes {
		b.BlockNode(n)
	}
	for _, l := range links {
		b.BlockLink(l)
	}
}

// Scenario is one failure for recovery experiments. The paper's study uses
// one failure per 5-minute window, present for the whole window, so
// Blocked ignores timing. Nothing reads Repair; it stays only because
// benchmarks/sim_fig1c.go sets it.
type Scenario struct {
	Node   topo.NodeID // or topo.None
	Link   topo.LinkID // or topo.NoLink
	Repair float64
}

// Blocked converts the scenario into a path filter.
func (s Scenario) Blocked() *topo.Blocked {
	b := topo.NewBlocked()
	if s.Node != topo.None {
		b.BlockNode(s.Node)
	}
	if s.Link != topo.NoLink {
		b.BlockLink(s.Link)
	}
	return b
}
