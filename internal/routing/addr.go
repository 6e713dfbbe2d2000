// Package routing implements the routing machinery ShareBackup relies on and
// compares against:
//
//   - the fat-tree Two-Level Routing tables of Al-Fares et al. (prefix
//     entries downward, suffix entries upward), including the VLAN-combined
//     failure-group table of Section 4.3 that lets a backup switch
//     impersonate any switch in its group with preloaded state;
//   - ECMP flow-to-path assignment used by the failure study;
//   - the two rerouting baselines of Figure 1(c): fat-tree global-optimal
//     rerouting and F10-style local rerouting with 3-hop detours.
package routing

import (
	"fmt"

	"sharebackup/internal/topo"
)

// Addr is a fat-tree address in the 10.pod.switch.id scheme of Al-Fares et
// al.; hosts are 10.pod.edge.(2 + position). Switches are never addressed:
// the two-level tables match host destinations only.
type Addr struct {
	A, B, C, D uint8
}

// String renders dotted-quad notation.
func (a Addr) String() string { return fmt.Sprintf("%d.%d.%d.%d", a.A, a.B, a.C, a.D) }

// HostAddr returns the address of the host at `position` under edge switch
// E_{pod,edge} in a k-ary fat-tree.
func HostAddr(k, pod, edge, position int) (Addr, error) {
	if err := checkK(k); err != nil {
		return Addr{}, err
	}
	half := k / 2
	if pod < 0 || pod >= k || edge < 0 || edge >= half || position < 0 || position >= half {
		return Addr{}, fmt.Errorf("routing: HostAddr(k=%d, pod=%d, edge=%d, pos=%d) out of range", k, pod, edge, position)
	}
	return Addr{10, uint8(pod), uint8(edge), uint8(2 + position)}, nil
}

// checkK adds the address scheme's bound to the fat-tree rule: a pod number
// is one byte of 10.pod.switch.id.
func checkK(k int) error {
	if k > 254 {
		return fmt.Errorf("routing: k=%d is not addressable (it must be <= 254)", k)
	}
	return topo.CheckK(k)
}
