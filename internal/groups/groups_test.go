package groups

import (
	"math"
	"testing"

	"sharebackup/internal/failure"
	"sharebackup/internal/topo"
)

func fatTree(t *testing.T, k int) *topo.FatTree {
	t.Helper()
	ft, err := topo.NewFatTree(topo.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestFatTreePlan(t *testing.T) {
	ft := fatTree(t, 8)
	plan, err := FatTreePlan(ft, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(plan.Groups), 5*8/2; got != want {
		t.Fatalf("groups = %d, want %d (5k/2)", got, want)
	}
	if err := plan.Validate(ft.Topology); err != nil {
		t.Fatalf("fat-tree plan invalid: %v", err)
	}
	for i := range plan.Groups {
		g := &plan.Groups[i]
		if g.Size() != 4 {
			t.Errorf("group %d size = %d, want k/2", i, g.Size())
		}
		if g.CircuitPortsNeeded() != 4+1+2 {
			t.Errorf("group %d circuit ports = %d, want k/2+n+2", i, g.CircuitPortsNeeded())
		}
	}
	if got, want := plan.TotalBackups(), 20; got != want {
		t.Errorf("total backups = %d, want 5kn/2 = %d", got, want)
	}
	if math.Abs(plan.BackupRatio()-0.25) > 1e-9 {
		t.Errorf("backup ratio = %v, want n/(k/2)", plan.BackupRatio())
	}
	// Core groups partition cores by index mod k/2.
	coreGroups := plan.Groups[16:]
	for gi := range coreGroups {
		for _, m := range coreGroups[gi].Members {
			if ft.Node(m).Kind != topo.KindCore {
				t.Fatalf("core group %d contains non-core %v", gi, m)
			}
			if ft.Node(m).Index%4 != gi {
				t.Errorf("core group %d contains C%d", gi, ft.Node(m).Index)
			}
		}
	}
	if _, err := FatTreePlan(ft, -1); err == nil {
		t.Error("negative n accepted")
	}
}

func TestByDegreePlanJellyfish(t *testing.T) {
	jf, err := topo.NewJellyfish(topo.JellyfishConfig{Switches: 30, Ports: 8, NetDegree: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ByDegreePlan(jf.Topology, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(jf.Topology); err != nil {
		t.Fatalf("degree plan invalid: %v", err)
	}
	for i := range plan.Groups {
		if plan.Groups[i].Size() > 8 {
			t.Errorf("group %d exceeds maxSize: %d", i, plan.Groups[i].Size())
		}
	}
	if plan.TotalSwitches() != 30 {
		t.Errorf("plan covers %d switches, want 30", plan.TotalSwitches())
	}
}

func TestByDegreePlanValidation(t *testing.T) {
	ft := fatTree(t, 4)
	if _, err := ByDegreePlan(ft.Topology, 0, 1); err == nil {
		t.Error("maxSize 0 accepted")
	}
	if _, err := ByDegreePlan(ft.Topology, 4, -1); err == nil {
		t.Error("negative n accepted")
	}
}

func TestPlanValidateCatchesDefects(t *testing.T) {
	ft := fatTree(t, 4)
	plan, err := FatTreePlan(ft, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate membership.
	bad := *plan
	bad.Groups = append([]Group(nil), plan.Groups...)
	bad.Groups[0].Members = append(bad.Groups[0].Members, bad.Groups[1].Members[0])
	if err := bad.Validate(ft.Topology); err == nil {
		t.Error("duplicate membership accepted")
	}
	// Missing coverage.
	short, err := FatTreePlan(ft, 1)
	if err != nil {
		t.Fatal(err)
	}
	short.Groups = short.Groups[1:]
	if err := short.Validate(ft.Topology); err == nil {
		t.Error("uncovered switch accepted")
	}
	// Port mismatch.
	wrong, err := FatTreePlan(ft, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrong.Groups[0].Ports = 99
	if err := wrong.Validate(ft.Topology); err == nil {
		t.Error("port mismatch accepted")
	}
	// Host in a group.
	hostPlan, err := FatTreePlan(ft, 1)
	if err != nil {
		t.Fatal(err)
	}
	hostPlan.Groups[0].Members[0] = ft.Host(0)
	if err := hostPlan.Validate(ft.Topology); err == nil {
		t.Error("host member accepted")
	}
}

func TestOverflowProbabilityAndExpectedUnprotected(t *testing.T) {
	g := Group{Members: make([]topo.NodeID, 24), Backups: 1}
	p := g.OverflowProbability(failure.SwitchFailureRate)
	if p <= 0 || p > 1e-4 {
		t.Errorf("overflow probability = %v", p)
	}
	g2 := Group{Members: make([]topo.NodeID, 24), Backups: 4}
	if g2.OverflowProbability(failure.SwitchFailureRate) >= p {
		t.Error("more backups did not reduce overflow probability")
	}
	plan := Plan{Groups: []Group{g, g2}}
	e := plan.ExpectedUnprotectedFailures(failure.SwitchFailureRate)
	if e < p || e > 2*p {
		t.Errorf("expected unprotected = %v, want within [p, 2p]", e)
	}
}
