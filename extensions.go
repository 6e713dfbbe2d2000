package sharebackup

import (
	"fmt"

	"sharebackup/internal/failure"
	"sharebackup/internal/groups"
	"sharebackup/internal/metrics"
	"sharebackup/internal/topo"
)

// This file mechanizes the paper's Section 6 (conclusion) extensions:
// sharable backup on other topologies via generalized failure-group plans,
// compared by criticality-weighted overflow risk, and activating idle
// backups for extra bandwidth.

// PlanRow is one failure-group plan's summary in the extensions study.
type PlanRow struct {
	Name          string
	Groups        int
	Switches      int
	Backups       int
	BackupRatio   float64
	MaxCSPorts    int     // largest circuit switch the plan needs
	WeightedRisk  float64 // sum over groups of criticality x overflow prob
	ExpectedUnpro float64 // expected number of overflowed groups
}

// planRow summarizes one plan under the paper's failure rate, weighting each
// group's overflow probability by its summed coverage criticality.
func planRow(name string, t *topo.Topology, plan *groups.Plan) PlanRow {
	row := PlanRow{
		Name:        name,
		Groups:      len(plan.Groups),
		Switches:    plan.TotalSwitches(),
		Backups:     plan.TotalBackups(),
		BackupRatio: plan.BackupRatio(),
	}
	for i := range plan.Groups {
		g := &plan.Groups[i]
		if p := g.CircuitPortsNeeded(); p > row.MaxCSPorts {
			row.MaxCSPorts = p
		}
		crit := 0.0
		for _, m := range g.Members {
			crit += groups.CoverageCriticality(t, m)
		}
		row.WeightedRisk += crit * g.OverflowProbability(failure.SwitchFailureRate)
	}
	row.ExpectedUnpro = plan.ExpectedUnprotectedFailures(failure.SwitchFailureRate)
	return row
}

// ExtensionStudy compares the paper's uniform fat-tree plan (n=1 per group)
// with a degree-homogeneous plan on a Jellyfish network of about the same
// switch count: the Section 6 claim that sharable backup carries over to
// other topologies "with different plans for partitioning failure groups".
// Where the switch counts agree, the Jellyfish plan matches the fat-tree's
// backup ratio, circuit-switch size and expected overflow, but its
// criticality-weighted risk is 1.7-2.1x as high (k=4 to 16): every Jellyfish
// switch carries hosts, where only a fat-tree's edge switches do.
func ExtensionStudy(k int, seed int64) ([]PlanRow, error) {
	ft, err := topo.NewFatTree(topo.Config{K: k})
	if err != nil {
		return nil, err
	}
	uniform, err := groups.FatTreePlan(ft, 1)
	if err != nil {
		return nil, err
	}
	rows := []PlanRow{planRow("fat-tree uniform n=1", ft.Topology, uniform)}

	// A Jellyfish fabric with a comparable switch count.
	switches := 5 * k * k / 4
	deg := k / 2
	if switches*deg%2 != 0 {
		switches++
	}
	jf, err := topo.NewJellyfish(topo.JellyfishConfig{
		Switches: switches, Ports: k, NetDegree: deg, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	jplan, err := groups.ByDegreePlan(jf.Topology, k/2, 1)
	if err != nil {
		return nil, err
	}
	if err := jplan.Validate(jf.Topology); err != nil {
		return nil, err
	}
	rows = append(rows, planRow(fmt.Sprintf("jellyfish (%d switches) by-degree n=1", switches), jf.Topology, jplan))
	return rows, nil
}

// AugmentationRow is the idle-backup activation study's one row.
type AugmentationRow struct {
	Pods             int // pods whose idle backup pair was activated
	FabricLinksAdded int // per pod: the k/2 backup edge-agg links
	// FailoverPods counts the pods where a failed agg switch was still
	// replaced by the augmented backup, with every invariant holding after.
	FailoverPods int
}

// AugmentationStudy activates the idle backups in every pod, then fails a
// switch per pod to confirm fault tolerance is untouched.
func AugmentationStudy(k int) (AugmentationRow, error) {
	var row AugmentationRow
	sys, err := New(Config{K: k, N: 1})
	if err != nil {
		return row, err
	}
	net := sys.Network
	for pod := 0; pod < k; pod++ {
		aug, err := net.ActivateIdleBackups(pod)
		if err != nil {
			return row, err
		}
		row.Pods++
		row.FabricLinksAdded = aug.Circuits
		// Guaranteed fault tolerance: the augmented backup must still
		// cover a failure.
		victim := net.AggGroup(pod).Slots()[0]
		backup, _, err := net.Replace(victim)
		if err == nil && backup == aug.AggSw && net.CheckInvariants() == nil {
			row.FailoverPods++
		}
	}
	return row, nil
}

// RenderExtensionStudy renders the plan comparison as a table.
func RenderExtensionStudy(rows []PlanRow) *metrics.Table {
	tbl := &metrics.Table{
		Title:   "Section 6 extensions — failure-group plans",
		Headers: []string{"plan", "groups", "switches", "backups", "ratio", "max CS ports", "weighted risk", "E[overflowed groups]"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Name, r.Groups, r.Switches, r.Backups, r.BackupRatio, r.MaxCSPorts, r.WeightedRisk, r.ExpectedUnpro)
	}
	return tbl
}
