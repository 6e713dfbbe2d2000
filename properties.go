package sharebackup

import (
	"errors"
	"fmt"
	"time"

	"sharebackup/internal/controller"
	"sharebackup/internal/cost"
	"sharebackup/internal/failure"
	"sharebackup/internal/metrics"
	"sharebackup/internal/routing"
	"sharebackup/internal/sbnet"
)

// CapacityResult reports the measured failure-handling capacity of a
// ShareBackup deployment (Section 5.1).
type CapacityResult struct {
	K, N      int
	GroupSize int // k/2 switches share the backups

	// ToleratedSwitchFailures is the measured number of concurrent
	// switch failures one failure group survives (must equal N).
	ToleratedSwitchFailures int

	// LinkFailuresHandled is the measured number of link failures rooted
	// at one faulty switch that a group absorbs while consuming a single
	// backup, after offline diagnosis exonerates the healthy far ends.
	// Across n faulty switches this scales to k*n (the paper's bound).
	LinkFailuresHandled int

	// BackupRatio is n/(k/2).
	BackupRatio float64
	// SwitchFailureRate is the paper's 0.01% working figure.
	SwitchFailureRate float64
	// PGroupOverflow is the probability a failure group sees more than n
	// concurrent failures under independent failures at
	// SwitchFailureRate.
	PGroupOverflow float64
}

// Capacity measures Section 5.1's capacity claims on a live network.
func Capacity(k, n int) (*CapacityResult, error) {
	sys, err := New(Config{K: k, N: n})
	if err != nil {
		return nil, err
	}
	net, ctl := sys.Network, sys.Controller
	res := &CapacityResult{
		K: k, N: n, GroupSize: k / 2,
		BackupRatio:       net.BackupRatio(),
		SwitchFailureRate: failure.SwitchFailureRate,
		PGroupOverflow:    failure.BinomialTail(k/2, n, failure.SwitchFailureRate),
	}

	// Measure switch-failure tolerance: fail switches in one aggregation
	// group until recovery is refused.
	g := net.AggGroup(0)
	for slot := 0; slot < k/2; slot++ {
		victim := g.Slots()[slot]
		net.InjectNodeFailure(victim)
		if _, err := ctl.RecoverNode(victim, time.Duration(slot)*time.Millisecond); err != nil {
			if errors.Is(err, sbnet.ErrNoBackup) {
				break
			}
			return nil, err
		}
		res.ToleratedSwitchFailures++
	}
	if err := net.CheckInvariants(); err != nil {
		return nil, err
	}

	// Measure link-failure absorption on a fresh system: one faulty agg
	// switch produces link failures on all its k/2 up-ports one after
	// another; diagnosis exonerates the healthy core ends each time, so
	// only one backup (per group involved) is consumed in steady state.
	sys2, err := New(Config{K: k, N: n})
	if err != nil {
		return nil, err
	}
	net2, ctl2 := sys2.Network, sys2.Controller
	faulty := net2.AggGroup(1).Slots()[0]
	handled := 0
	for t := 0; t < k/2; t++ {
		// The faulty agg's up-port t fails; peer is core slot 0 of
		// core group t.
		if err := net2.InjectPortFailure(faulty, k/2+t); err != nil {
			return nil, err
		}
		peer := net2.CoreGroup(t).Slots()[0]
		_, err := ctl2.ReportLinkFailure(
			controller.EndPoint{Switch: faulty, Port: k/2 + t},
			controller.EndPoint{Switch: peer, Port: 1},
			time.Duration(t)*time.Millisecond,
		)
		if err != nil && t == 0 {
			return nil, err
		}
		// After the first failure the faulty switch is already
		// offline; subsequent reports only replace the healthy peer,
		// which diagnosis then returns to the pool.
		if _, err := ctl2.RunDiagnosis(); err != nil {
			return nil, err
		}
		handled++
	}
	res.LinkFailuresHandled = handled
	if err := net2.CheckInvariants(); err != nil {
		return nil, err
	}
	return res, nil
}

// LatencyRow is one recovery-latency comparison entry (Section 5.3).
type LatencyRow struct {
	Scheme    string
	Detection time.Duration
	Comm      time.Duration
	Reconfig  time.Duration // circuit reset, or SDN rule update for rerouting
	Total     time.Duration
}

// RecoveryLatency compares ShareBackup's recovery latency under both
// circuit-switch technologies against F10/Aspen-class local rerouting, using
// the paper's constants: a shared probing interval, sub-millisecond
// controller communication, 70 ns / 40 µs circuit resets, and a ~1 ms SDN
// rule update for rerouting.
func RecoveryLatency(k int) ([]LatencyRow, error) {
	if err := CheckEveryTechnology(k, 1); err != nil {
		return nil, err
	}
	var rows []LatencyRow
	for _, tech := range technologies {
		sys, err := New(Config{K: k, N: 1, Tech: tech})
		if err != nil {
			return nil, err
		}
		victim := sys.Network.AggGroup(0).Slots()[0]
		sys.Controller.Heartbeat(victim, 0)
		probe := sys.Controller.Config().ProbeInterval
		rec, err := sys.FailNode(victim, probe)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LatencyRow{
			Scheme:    fmt.Sprintf("ShareBackup (%v)", tech),
			Detection: rec.Detection,
			Comm:      rec.Comm,
			Reconfig:  rec.Reconfig,
			Total:     rec.Total(),
		})
	}
	sys, err := New(Config{K: k, N: 1})
	if err != nil {
		return nil, err
	}
	probe := sys.Controller.Config().ProbeInterval
	rows = append(rows, LatencyRow{
		Scheme:    "F10/Aspen local rerouting",
		Detection: probe,
		Reconfig:  controller.SDNRuleUpdateLatency,
		Total:     sys.Controller.RerouteRecoveryLatency(),
	})
	return rows, nil
}

// TableSizeRow verifies Section 4.3's combined-table arithmetic for one k.
type TableSizeRow struct {
	K        int
	Hosts    int // k^3/4
	Inbound  int // k/2
	Outbound int // k^2/4
	Total    int
}

// TableSizes builds the VLAN-combined failure-group tables across scales.
// For k=64 the total is 1056 entries, within commodity TCAM capacity.
func TableSizes(ks []int) ([]TableSizeRow, error) {
	var rows []TableSizeRow
	for _, k := range ks {
		vt, err := routing.BuildVLANTable(k, 0)
		if err != nil {
			return nil, err
		}
		out := 0
		for _, t := range vt.Outbound {
			out += t.Size()
		}
		rows = append(rows, TableSizeRow{
			K:        k,
			Hosts:    k * k * k / 4,
			Inbound:  vt.Inbound.Size(),
			Outbound: out,
			Total:    vt.Size(),
		})
	}
	return rows, nil
}

// Table2 renders the cost comparison at one scale under both price points.
func Table2(k, n int) (*metrics.Table, error) {
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("Table 2 — additional cost over fat-tree (k=%d, n=%d)", k, n),
		Headers: []string{"architecture", "prices", "circuit$", "switch$", "cable$", "extra$", "rel. to fat-tree"},
	}
	for _, p := range []cost.Prices{cost.EDC, cost.ODC} {
		rows, err := cost.Compare(k, n, p)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			tbl.AddRow(r.Architecture, p.Name, r.Extra.CircuitPorts, r.Extra.SwitchPorts,
				r.Extra.Cables, r.Extra.Total(), r.Relative)
		}
	}
	return tbl, nil
}

// Fig5 sweeps network scale (k = 8 … 64) and returns one
// relative-additional-cost series per (architecture, price point), the
// curves of Figure 5: ShareBackup at n = 1 and n = 4, Aspen Tree, and 1:1
// backup.
func Fig5() ([]*metrics.Series, error) {
	ks := []int{8, 16, 24, 32, 40, 48, 56, 64}
	var out []*metrics.Series
	for _, p := range []cost.Prices{cost.EDC, cost.ODC} {
		for _, n := range []int{1, 4} {
			s := &metrics.Series{Name: fmt.Sprintf("ShareBackup(n=%d) %s", n, p.Name), XLabel: "k"}
			for _, k := range ks {
				ex, err := cost.ShareBackupExtra(k, n, p)
				if err != nil {
					return nil, err
				}
				rel, err := cost.Relative(ex, k, p)
				if err != nil {
					return nil, err
				}
				s.Add(float64(k), rel)
			}
			out = append(out, s)
		}
		aspen := &metrics.Series{Name: "AspenTree " + p.Name, XLabel: "k"}
		oneone := &metrics.Series{Name: "1:1Backup " + p.Name, XLabel: "k"}
		for _, k := range ks {
			ax, err := cost.AspenExtra(k, p)
			if err != nil {
				return nil, err
			}
			rel, err := cost.Relative(ax, k, p)
			if err != nil {
				return nil, err
			}
			aspen.Add(float64(k), rel)
			ox, err := cost.OneToOneExtra(k, p)
			if err != nil {
				return nil, err
			}
			rel, err = cost.Relative(ox, k, p)
			if err != nil {
				return nil, err
			}
			oneone.Add(float64(k), rel)
		}
		out = append(out, aspen, oneone)
	}
	return out, nil
}
