// Package circuit models the small physical-layer circuit switches
// ShareBackup inserts between adjacent layers of packet switches (and between
// hosts and edge switches). A circuit switch is a crossbar: it joins ports on
// its A side to ports on its B side, one-to-one, and can be reconfigured at
// run time. Reconfiguration latency and port scale follow the two
// implementation technologies the paper prices: electrical crosspoint
// switches (XFabric, NSDI'16) and 2D MEMS optical switches.
package circuit

import (
	"fmt"
	"time"
)

// Technology selects the physical implementation of a circuit switch.
type Technology uint8

const (
	// Crosspoint is an electrical crosspoint switch: 70 ns
	// reconfiguration, scales to 256 ports, $3 per port.
	Crosspoint Technology = iota
	// MEMS2D is a 2D MEMS optical switch: 40 µs reconfiguration, scales
	// to 32 ports, $10 per port.
	MEMS2D
)

// String names the technology.
func (t Technology) String() string {
	switch t {
	case Crosspoint:
		return "crosspoint"
	case MEMS2D:
		return "2D-MEMS"
	default:
		return fmt.Sprintf("technology(%d)", uint8(t))
	}
}

// ReconfigDelay returns the circuit reconfiguration latency of the
// technology (Section 5.3 of the paper).
func (t Technology) ReconfigDelay() time.Duration {
	switch t {
	case Crosspoint:
		return 70 * time.Nanosecond
	case MEMS2D:
		return 40 * time.Microsecond
	default:
		return 0
	}
}

// PortLimit returns the maximum port count per side the technology scales
// to. ShareBackup's scalability bound is k/2 + n + 2 <= PortLimit.
func (t Technology) PortLimit() int {
	switch t {
	case Crosspoint:
		return 256
	case MEMS2D:
		return 32
	default:
		return 0
	}
}

// Unconnected marks a port with no internal circuit.
const Unconnected = -1

// Switch is an N-by-N circuit switch. A-side ports face one set of devices
// (e.g. packet switches of a failure group), B-side ports face another
// (e.g. hosts, or the layer below). Each port carries at most one circuit.
//
// Switch is not safe for concurrent use; the controller serializes access.
type Switch struct {
	name string
	tech Technology
	n    int

	aToB []int
	bToA []int

	failed    bool
	reconfigs int // number of reconfiguration events applied
}

// New creates an n-port-per-side circuit switch with all ports unconnected.
func New(name string, tech Technology, n int) (*Switch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("circuit: switch %q: port count %d must be positive", name, n)
	}
	if limit := tech.PortLimit(); n > limit {
		return nil, fmt.Errorf("circuit: switch %q: %d ports exceeds %v limit of %d", name, n, tech, limit)
	}
	s := &Switch{name: name, tech: tech, n: n, aToB: make([]int, n), bToA: make([]int, n)}
	for i := 0; i < n; i++ {
		s.aToB[i] = Unconnected
		s.bToA[i] = Unconnected
	}
	return s, nil
}

// Name returns the switch's name.
func (s *Switch) Name() string { return s.name }

// Reconfigs returns the number of reconfiguration events applied so far.
func (s *Switch) Reconfigs() int { return s.reconfigs }

// Fail marks the switch failed. A failed switch keeps its circuits (light
// stops passing, but the configuration memory survives) and rejects
// reconfiguration until repaired.
func (s *Switch) Fail() { s.failed = true }

// Repair clears the failed state. Per Section 5.1, a rebooted circuit switch
// re-learns its configuration from the controller; callers are expected to
// follow Repair with an Apply of the authoritative configuration.
func (s *Switch) Repair() { s.failed = false }

// BOf returns the B-side port the A-side port a is circuited to, or
// Unconnected.
func (s *Switch) BOf(a int) int { return s.aToB[a] }

// AOf returns the A-side port the B-side port b is circuited to, or
// Unconnected.
func (s *Switch) AOf(b int) int { return s.bToA[b] }

func (s *Switch) checkPort(side string, p int) error {
	if p < 0 || p >= s.n {
		return fmt.Errorf("circuit: switch %q: %s-side port %d out of range [0,%d)", s.name, side, p, s.n)
	}
	return nil
}

// Change is one circuit assignment in a reconfiguration: connect A-side port
// A to B-side port B. Use B == Unconnected to tear down A's circuit only.
type Change struct {
	A int
	B int
}

// Apply atomically applies a batch of changes as a single reconfiguration
// event and returns the reconfiguration latency incurred (one technology
// delay regardless of batch size: crossbars reset all circuits in one
// operation). Ports being newly connected must be free or freed within the
// same batch; Apply first tears down every circuit touching a port named in
// the batch, then makes the new connections.
func (s *Switch) Apply(changes []Change) (time.Duration, error) {
	if s.failed {
		return 0, fmt.Errorf("circuit: switch %q: reconfiguration while failed", s.name)
	}
	for _, c := range changes {
		if err := s.checkPort("A", c.A); err != nil {
			return 0, err
		}
		if c.B != Unconnected {
			if err := s.checkPort("B", c.B); err != nil {
				return 0, err
			}
		}
	}
	// Reject two changes claiming the same port.
	seenA := make(map[int]bool, len(changes))
	seenB := make(map[int]bool, len(changes))
	for _, c := range changes {
		if seenA[c.A] {
			return 0, fmt.Errorf("circuit: switch %q: duplicate A-side port %d in batch", s.name, c.A)
		}
		seenA[c.A] = true
		if c.B != Unconnected {
			if seenB[c.B] {
				return 0, fmt.Errorf("circuit: switch %q: duplicate B-side port %d in batch", s.name, c.B)
			}
			seenB[c.B] = true
		}
	}
	// Tear down circuits touching any named port.
	for _, c := range changes {
		if old := s.aToB[c.A]; old != Unconnected {
			s.aToB[c.A] = Unconnected
			s.bToA[old] = Unconnected
		}
		if c.B != Unconnected {
			if old := s.bToA[c.B]; old != Unconnected {
				s.bToA[c.B] = Unconnected
				s.aToB[old] = Unconnected
			}
		}
	}
	// Make the new circuits.
	for _, c := range changes {
		if c.B == Unconnected {
			continue
		}
		s.aToB[c.A] = c.B
		s.bToA[c.B] = c.A
	}
	s.reconfigs++
	return s.tech.ReconfigDelay(), nil
}

// Restore applies a whole configuration — the B-side port (or Unconnected)
// of every A-side port — as one reconfiguration event.
func (s *Switch) Restore(snap []int) (time.Duration, error) {
	if len(snap) != s.n {
		return 0, fmt.Errorf("circuit: switch %q: snapshot has %d ports, want %d", s.name, len(snap), s.n)
	}
	changes := make([]Change, 0, s.n)
	for a, b := range snap {
		changes = append(changes, Change{A: a, B: b})
	}
	return s.Apply(changes)
}

// Validate checks the internal A<->B mapping is a consistent partial
// matching. It returns nil for healthy state; a non-nil error indicates a
// bug in this package.
func (s *Switch) Validate() error {
	for a, b := range s.aToB {
		if b == Unconnected {
			continue
		}
		if b < 0 || b >= s.n {
			return fmt.Errorf("circuit: switch %q: A%d maps to out-of-range B%d", s.name, a, b)
		}
		if s.bToA[b] != a {
			return fmt.Errorf("circuit: switch %q: A%d->B%d but B%d->A%d", s.name, a, b, b, s.bToA[b])
		}
	}
	for b, a := range s.bToA {
		if a == Unconnected {
			continue
		}
		if s.aToB[a] != b {
			return fmt.Errorf("circuit: switch %q: B%d->A%d but A%d->B%d", s.name, b, a, a, s.aToB[a])
		}
	}
	return nil
}
