// Package cost implements the cost model of Section 5.2 (Table 2 and
// Figure 5): hardware cost equations for fat-tree, ShareBackup, Aspen Tree,
// and 1:1 backup, under electrical (E-DC) and optical (O-DC) data center
// price points.
//
// Variables follow Table 2: a is the per-port cost of circuit switches, b
// the per-port cost of packet switches, c the cost per cable. ShareBackup
// adds 5/2*k*n backup switches (k ports each), 5/4*k^2*n cable-equivalents,
// and 3/2*k^2*(k/2+n+2) circuit-switch ports on top of a fat-tree.
package cost

import (
	"fmt"

	"sharebackup/internal/topo"
)

// Prices is a market price point (Table 2's bottom half).
type Prices struct {
	Name        string
	CircuitPort float64 // a: per-port cost of circuit switches
	SwitchPort  float64 // b: per-port cost of packet switches
	Cable       float64 // c: cost per cable
}

// EDC prices an electrical data center: $3/port crosspoint circuit switches
// (XFabric), $60/port packet switches ($3000 48-port 10GbE bare-metal),
// $81 10 m 10G DAC cables.
var EDC = Prices{Name: "E-DC", CircuitPort: 3, SwitchPort: 60, Cable: 81}

// ODC prices an optical data center: $10/port 2D-MEMS circuit switches,
// the same packet switches, and $40 cables (2 x $16 transceivers + $8 fiber).
var ODC = Prices{Name: "O-DC", CircuitPort: 10, SwitchPort: 60, Cable: 40}

// Breakdown itemizes a cost into Table 2's three terms.
type Breakdown struct {
	CircuitPorts float64 // a-term
	SwitchPorts  float64 // b-term
	Cables       float64 // c-term
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 { return b.CircuitPorts + b.SwitchPorts + b.Cables }

// Check rejects a scale the model does not price: a k that breaks the
// fat-tree rule, or a negative n. The model prices any n: the circuit-switch
// port limit binds a fabric that is built, not one that is priced.
func Check(k, n int) error {
	if err := topo.CheckK(k); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("cost: n=%d must be non-negative", n)
	}
	return nil
}

// FatTree returns the cost of a plain k-ary fat-tree:
// (5/4)k^3*b + (k^3/2)*c. The b-term counts 5k^2/4 switches of k ports; the
// c-term counts the k^3/2 switch-to-switch cables.
func FatTree(k int, p Prices) (Breakdown, error) {
	if err := topo.CheckK(k); err != nil {
		return Breakdown{}, err
	}
	kf := float64(k)
	return Breakdown{
		SwitchPorts: 5.0 / 4.0 * kf * kf * kf * p.SwitchPort,
		Cables:      kf * kf * kf / 2.0 * p.Cable,
	}, nil
}

// ShareBackupExtra returns ShareBackup's additional cost over fat-tree:
// (3/2)k^2(k/2+n+2)*a + (5/2)k^2*n*b + (5/4)k^2*n*c.
func ShareBackupExtra(k, n int, p Prices) (Breakdown, error) {
	if err := Check(k, n); err != nil {
		return Breakdown{}, err
	}
	kf, nf := float64(k), float64(n)
	return Breakdown{
		CircuitPorts: 3.0 / 2.0 * kf * kf * (kf/2 + nf + 2) * p.CircuitPort,
		SwitchPorts:  5.0 / 2.0 * kf * kf * nf * p.SwitchPort,
		Cables:       5.0 / 4.0 * kf * kf * nf * p.Cable,
	}, nil
}

// AspenExtra returns Aspen Tree's additional cost over fat-tree:
// (k^3/2)*b + (k^3/4)*c — one extra layer of k^2/2 switches and k^3/4 more
// cables.
func AspenExtra(k int, p Prices) (Breakdown, error) {
	if err := topo.CheckK(k); err != nil {
		return Breakdown{}, err
	}
	kf := float64(k)
	return Breakdown{
		SwitchPorts: kf * kf * kf / 2.0 * p.SwitchPort,
		Cables:      kf * kf * kf / 4.0 * p.Cable,
	}, nil
}

// OneToOneExtra returns 1:1 backup's additional cost over fat-tree:
// (15/4)k^3*b + (3/2)k^3*c — every switch duplicated with doubled port
// counts, every inter-switch link duplicated into a mesh with the shadows.
func OneToOneExtra(k int, p Prices) (Breakdown, error) {
	if err := topo.CheckK(k); err != nil {
		return Breakdown{}, err
	}
	kf := float64(k)
	return Breakdown{
		SwitchPorts: 15.0 / 4.0 * kf * kf * kf * p.SwitchPort,
		Cables:      3.0 / 2.0 * kf * kf * kf * p.Cable,
	}, nil
}

// Relative returns an architecture's additional cost as a fraction of the
// fat-tree baseline cost — the y-axis of Figure 5.
func Relative(extra Breakdown, k int, p Prices) (float64, error) {
	base, err := FatTree(k, p)
	if err != nil {
		return 0, err
	}
	return extra.Total() / base.Total(), nil
}

// Row is one architecture's entry in a Table 2 / Figure 5 rendering.
type Row struct {
	Architecture string
	Extra        Breakdown
	Relative     float64 // extra / fat-tree
}

// Compare evaluates all architectures at one (k, n, prices) point:
// ShareBackup with the given n, Aspen Tree, and 1:1 backup.
func Compare(k, n int, p Prices) ([]Row, error) {
	sb, err := ShareBackupExtra(k, n, p)
	if err != nil {
		return nil, err
	}
	at, err := AspenExtra(k, p)
	if err != nil {
		return nil, err
	}
	oo, err := OneToOneExtra(k, p)
	if err != nil {
		return nil, err
	}
	rows := []Row{
		{Architecture: fmt.Sprintf("ShareBackup(n=%d)", n), Extra: sb},
		{Architecture: "AspenTree", Extra: at},
		{Architecture: "1:1Backup", Extra: oo},
	}
	for i := range rows {
		rows[i].Relative, err = Relative(rows[i].Extra, k, p)
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
