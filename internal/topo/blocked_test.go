package topo

import (
	"math/rand"
	"testing"
)

// mapBlocked is the reference implementation the bitset Blocked replaced;
// the differential test below drives both through randomized op sequences.
type mapBlocked struct {
	nodes map[NodeID]bool
	links map[LinkID]bool
}

func newMapBlocked() *mapBlocked {
	return &mapBlocked{nodes: make(map[NodeID]bool), links: make(map[LinkID]bool)}
}

// TestBlockedDifferential checks bitset Blocked against the map reference
// under randomized block/unblock/reset/copy sequences.
func TestBlockedDifferential(t *testing.T) {
	const maxNode, maxLink = 700, 1300
	r := rand.New(rand.NewSource(42))
	b := NewBlocked()
	ref := newMapBlocked()
	check := func(step int) {
		for n := NodeID(0); n < maxNode; n++ {
			if b.NodeBlocked(n) != ref.nodes[n] {
				t.Fatalf("step %d: node %d: bitset %v, map %v", step, n, b.NodeBlocked(n), ref.nodes[n])
			}
		}
		for l := LinkID(0); l < maxLink; l++ {
			if b.LinkBlocked(l) != ref.links[l] {
				t.Fatalf("step %d: link %d: bitset %v, map %v", step, l, b.LinkBlocked(l), ref.links[l])
			}
		}
	}
	for step := 0; step < 3000; step++ {
		n := NodeID(r.Intn(maxNode))
		l := LinkID(r.Intn(maxLink))
		switch r.Intn(8) {
		case 0, 1, 2:
			b.BlockNode(n)
			ref.nodes[n] = true
		case 3, 4, 5:
			b.BlockLink(l)
			ref.links[l] = true
		case 6:
			if r.Intn(20) == 0 { // rare full reset
				b.Reset()
				ref = newMapBlocked()
			}
		case 7:
			// CopyFrom round-trips through a scratch set.
			scratch := NewBlocked()
			scratch.CopyFrom(b)
			scratch.BlockNode(n)
			b.CopyFrom(scratch)
			ref.nodes[n] = true
		}
		if step%100 == 0 {
			check(step)
		}
	}
	check(3000)
}

// TestBlockedNilAndSentinels checks the nil receiver and the negative
// sentinel IDs are safe no-answers, matching the map semantics where absent
// keys read false.
func TestBlockedNilAndSentinels(t *testing.T) {
	var b *Blocked
	if b.NodeBlocked(3) || b.LinkBlocked(3) || b.NodeBlocked(None) || b.LinkBlocked(NoLink) {
		t.Fatal("nil Blocked blocked something")
	}
	if !b.PathOK(Path{Nodes: []NodeID{1, 2}, Links: []LinkID{0}}) {
		t.Fatal("nil Blocked rejected a path")
	}
	nb := NewBlocked()
	nb.BlockNode(0)
	if nb.NodeBlocked(None) || nb.LinkBlocked(NoLink) {
		t.Fatal("sentinel IDs read as blocked")
	}
}

// TestBlockedCopyFrom checks CopyFrom semantics, including shrinking copies
// and nil sources.
func TestBlockedCopyFrom(t *testing.T) {
	a := NewBlocked()
	a.BlockNode(500) // force a long bitset
	b := NewBlocked()
	b.BlockNode(1)
	b.BlockLink(2)
	a.CopyFrom(b) // shrink: the stale word 500/64 must not survive
	if a.NodeBlocked(500) {
		t.Fatal("CopyFrom kept stale high bits")
	}
	if !a.NodeBlocked(1) || !a.LinkBlocked(2) {
		t.Fatal("CopyFrom dropped bits")
	}
	a.BlockNode(9)
	if b.NodeBlocked(9) {
		t.Fatal("CopyFrom aliased the source")
	}
	a.CopyFrom(nil)
	if a.NodeBlocked(1) || a.LinkBlocked(2) {
		t.Fatal("CopyFrom(nil) did not clear")
	}
}

// TestBlockedNegativePanic checks that blocking a sentinel is a programming
// error caught loudly rather than silently widening the set.
func TestBlockedNegativePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BlockNode(None) did not panic")
		}
	}()
	NewBlocked().BlockNode(None)
}
