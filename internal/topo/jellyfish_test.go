package topo

import "testing"

func TestJellyfishStructure(t *testing.T) {
	cfg := JellyfishConfig{Switches: 20, Ports: 8, NetDegree: 5, Seed: 3}
	jf, err := NewJellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(jf.SwitchIDs()); got != 20 {
		t.Fatalf("switches = %d", got)
	}
	if got, want := len(jf.NodesOfKind(KindHost)), 20*(8-5); got != want {
		t.Fatalf("hosts = %d, want %d", got, want)
	}
	// Every switch's realized network degree is at most NetDegree, and
	// the vast majority hit it exactly (the random matching may leave a
	// few stubs when swaps cannot resolve).
	full := 0
	for _, s := range jf.SwitchIDs() {
		d := 0
		for _, lid := range jf.LinksOf(s) {
			if jf.Node(jf.Link(lid).Other(s)).Kind.IsSwitch() {
				d++
			}
		}
		if d > 5 {
			t.Fatalf("switch %d network degree %d exceeds NetDegree", s, d)
		}
		if d == 5 {
			full++
		}
	}
	if full < 18 {
		t.Errorf("only %d/20 switches reached full degree", full)
	}
	// No self loops or duplicate links (guaranteed by Topology), and all
	// switch pairs distinct.
	for _, l := range jf.Links {
		if l.A == l.B {
			t.Fatal("self loop")
		}
	}
}

func TestJellyfishConnected(t *testing.T) {
	jf, err := NewJellyfish(JellyfishConfig{Switches: 30, Ports: 6, NetDegree: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s0 := jf.SwitchIDs()[0]
	for _, s := range jf.SwitchIDs()[1:] {
		if !jf.Connected(s0, s, nil) {
			t.Fatalf("switch %d unreachable; random regular graph should be connected at degree 4", s)
		}
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	a, err := NewJellyfish(JellyfishConfig{Switches: 16, Ports: 6, NetDegree: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJellyfish(JellyfishConfig{Switches: 16, Ports: 6, NetDegree: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("same-seed builds differ")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs between same-seed builds", i)
		}
	}
}

func TestJellyfishValidation(t *testing.T) {
	bad := []JellyfishConfig{
		{Switches: 1, Ports: 4, NetDegree: 2},
		{Switches: 10, Ports: 4, NetDegree: 0},
		{Switches: 10, Ports: 2, NetDegree: 4},
		{Switches: 10, Ports: 4, NetDegree: 12},
		{Switches: 5, Ports: 6, NetDegree: 3}, // odd stub count
	}
	for _, cfg := range bad {
		if _, err := NewJellyfish(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestJellyfishHostsAttached(t *testing.T) {
	jf, err := NewJellyfish(JellyfishConfig{Switches: 12, Ports: 5, NetDegree: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range jf.NodesOfKind(KindHost) {
		if jf.Degree(h) != 1 {
			t.Fatalf("host %d degree = %d, want 1", h, jf.Degree(h))
		}
		nbr := jf.Link(jf.LinksOf(h)[0]).Other(h)
		if !jf.Node(nbr).Kind.IsSwitch() {
			t.Fatalf("host %d attached to non-switch", h)
		}
	}
}
