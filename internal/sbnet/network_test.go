package sbnet

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/topo"
)

func newNet(t *testing.T, k, n int) *Network {
	t.Helper()
	net, err := New(Config{K: k, N: n, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: 3, N: 1}); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := New(Config{K: 2, N: 1}); err == nil {
		t.Error("k=2 accepted")
	}
	if _, err := New(Config{K: 4, N: -1}); err == nil {
		t.Error("negative n accepted")
	}
	// Section 5.3: k/2 + n + 2 <= 32 for 2D MEMS. k=58, n=1 fits exactly;
	// k=60 does not.
	if _, err := New(Config{K: 58, N: 1, Tech: circuit.MEMS2D}); err != nil {
		t.Errorf("k=58 n=1 should fit 32-port MEMS: %v", err)
	}
	if _, err := New(Config{K: 60, N: 1, Tech: circuit.MEMS2D}); err == nil {
		t.Error("k=60 n=1 exceeds 32-port MEMS but was accepted")
	}
}

func TestConstructionCounts(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{4, 0}, {4, 1}, {6, 1}, {8, 2}} {
		net := newNet(t, tc.k, tc.n)
		half := tc.k / 2
		gsz := half + tc.n
		if got, want := net.NumGroups(), 5*tc.k/2; got != want {
			t.Errorf("k=%d n=%d: groups = %d, want %d (5k/2)", tc.k, tc.n, got, want)
		}
		// Table 2 accounting: 5/4 k^2 regular switches + 5/2 k n backups.
		wantSwitches := 2*tc.k*gsz + half*gsz
		if got := net.NumSwitches(); got != wantSwitches {
			t.Errorf("k=%d n=%d: switches = %d, want %d", tc.k, tc.n, got, wantSwitches)
		}
		if got, want := net.NumCircuitSwitches(), 3*tc.k*half; got != want {
			t.Errorf("k=%d n=%d: circuit switches = %d, want %d (3k/2 per pod)", tc.k, tc.n, got, want)
		}
		if err := net.CheckInvariants(); err != nil {
			t.Errorf("k=%d n=%d: fresh network violates invariants: %v", tc.k, tc.n, err)
		}
		backups := 0
		for g := 0; g < net.NumGroups(); g++ {
			backups += len(net.FreeBackups(GroupID(g)))
		}
		if want := 5 * tc.k / 2 * tc.n; backups != want {
			t.Errorf("k=%d n=%d: free backups = %d, want %d (5kn/2)", tc.k, tc.n, backups, want)
		}
	}
}

func TestNames(t *testing.T) {
	net := newNet(t, 6, 1)
	eg := net.EdgeGroup(1)
	if got := net.Name(eg.Members[0]); got != "E1,0" {
		t.Errorf("edge name = %q", got)
	}
	if got := net.Name(eg.Members[3]); got != "BS1,1,0" {
		t.Errorf("edge backup name = %q", got)
	}
	ag := net.AggGroup(2)
	if got := net.Name(ag.Members[2]); got != "A2,2" {
		t.Errorf("agg name = %q", got)
	}
	cg := net.CoreGroup(1)
	// Core group t=1 member s is C_{s*k/2 + t}: member 2 -> C7.
	if got := net.Name(cg.Members[2]); got != "C7" {
		t.Errorf("core name = %q", got)
	}
	if got := net.Name(cg.Members[3]); got != "BS3,1,0" {
		t.Errorf("core backup name = %q", got)
	}
}

// TestGroupOfCore: core C_j sits in slot j / (k/2) of core group j mod k/2.
func TestGroupOfCore(t *testing.T) {
	net := newNet(t, 6, 1)
	for j := 0; j < 9; j++ {
		if name := net.Name(net.CoreGroup(j % 3).slots[j/3]); name != fmt.Sprintf("C%d", j) {
			t.Errorf("group %d slot %d holds %s, want C%d", j%3, j/3, name, j)
		}
	}
}

func TestReplaceEdge(t *testing.T) {
	net := newNet(t, 6, 1)
	eg := net.EdgeGroup(2)
	failed := eg.Members[1] // E2,1
	backup, d, err := net.Replace(failed)
	if err != nil {
		t.Fatal(err)
	}
	if net.Name(backup) != "BS1,2,0" {
		t.Errorf("chose backup %s", net.Name(backup))
	}
	if d != 70*time.Nanosecond {
		t.Errorf("recovery reconfiguration delay = %v, want one crosspoint delay", d)
	}
	if got := net.Switch(failed).Role; got != RoleOffline {
		t.Errorf("failed switch role = %v", got)
	}
	if sw := net.Switch(backup); sw.Role != RoleActive || sw.Slot != 1 {
		t.Errorf("backup switch role=%v slot=%d", sw.Role, sw.Slot)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after edge replacement: %v", err)
	}
	// The hosts of rack 1 are now served by the backup.
	serving, err := net.EdgeServingRack(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serving != backup {
		t.Errorf("rack 1 served by %s, want %s", net.Name(serving), net.Name(backup))
	}
	if len(net.FreeBackups(eg.ID)) != 0 {
		t.Error("backup pool should be exhausted")
	}
}

func TestReplaceAgg(t *testing.T) {
	net := newNet(t, 6, 2)
	ag := net.AggGroup(0)
	failed := ag.Members[2] // A0,2
	backup, _, err := net.Replace(failed)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after agg replacement: %v", err)
	}
	if ag.slots[2] != backup {
		t.Error("slot 2 not taken over by backup")
	}
}

func TestReplaceCore(t *testing.T) {
	net := newNet(t, 6, 1)
	g, slot := net.CoreGroup(1), 1 // C4 = slot 1 of group t=1 (4 = 1*3 + 1)
	failed := g.slots[slot]
	backup, _, err := net.Replace(failed)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after core replacement: %v", err)
	}
	if g.slots[slot] != backup {
		t.Error("core slot not taken over")
	}
	// Core replacement must touch CS3 in every pod: each CS3[pod][1] has
	// one extra reconfiguration beyond the initial one.
	for pod := 0; pod < 6; pod++ {
		if got := net.CS3(pod, 1).Reconfigs(); got != 2 {
			t.Errorf("CS3[%d][1] reconfigs = %d, want 2", pod, got)
		}
		if got := net.CS3(pod, 0).Reconfigs(); got != 1 {
			t.Errorf("CS3[%d][0] reconfigs = %d, want 1 (untouched)", pod, got)
		}
	}
}

func TestReplaceErrors(t *testing.T) {
	net := newNet(t, 4, 1)
	eg := net.EdgeGroup(0)
	ag := net.AggGroup(0)
	// Backup is not active: cannot be "failed over from".
	if _, err := net.ReplaceWith(eg.Members[2], eg.Members[2]); err == nil {
		t.Error("replacing a backup accepted")
	}
	// Target must be a free backup.
	if _, err := net.ReplaceWith(eg.Members[0], eg.Members[1]); err == nil {
		t.Error("active switch used as backup")
	}
	// Cross-group replacement is physically impossible.
	if _, err := net.ReplaceWith(eg.Members[0], ag.Members[2]); err == nil {
		t.Error("cross-group replacement accepted")
	}
}

func TestCapacityExhaustionAndRelease(t *testing.T) {
	// Section 5.1: a failure group tolerates n concurrent failures; the
	// n+1-th finds no backup. Releasing a repaired switch restores
	// capacity.
	net := newNet(t, 8, 2)
	g := net.AggGroup(3)
	var replaced []SwitchID
	for i := 0; i < 2; i++ {
		failed := g.slots[i]
		if _, _, err := net.Replace(failed); err != nil {
			t.Fatalf("failure %d: %v", i, err)
		}
		replaced = append(replaced, failed)
	}
	if _, _, err := net.Replace(g.slots[2]); !errors.Is(err, ErrNoBackup) {
		t.Fatalf("3rd concurrent failure: err = %v, want ErrNoBackup", err)
	}
	// Repair one switch: it becomes a backup (not active) and the next
	// failure can be recovered.
	if err := net.Release(replaced[0]); err != nil {
		t.Fatal(err)
	}
	if got := net.Switch(replaced[0]).Role; got != RoleBackup {
		t.Errorf("released switch role = %v, want backup", got)
	}
	b, _, err := net.Replace(g.slots[2])
	if err != nil {
		t.Fatal(err)
	}
	if b != replaced[0] {
		t.Errorf("recovery used %s, want the repaired switch", net.Name(b))
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := net.Release(g.slots[0]); err == nil {
		t.Error("releasing an active switch accepted")
	}
}

func TestLinkFailureReplacesBothEnds(t *testing.T) {
	// Section 4.1: for fast recovery both sides of a failed link are
	// replaced, consuming one backup in each group.
	net := newNet(t, 6, 1)
	edge := net.EdgeGroup(4).slots[0]
	agg := net.AggGroup(4).slots[2]
	if _, _, err := net.Replace(edge); err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.Replace(agg); err != nil {
		t.Fatal(err)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after double replacement: %v", err)
	}
	if len(net.FreeBackups(net.EdgeGroup(4).ID)) != 0 || len(net.FreeBackups(net.AggGroup(4).ID)) != 0 {
		t.Error("both groups should have consumed their backup")
	}
}

func TestEdgeServingRackSplitDetection(t *testing.T) {
	net := newNet(t, 4, 1)
	// Manually wedge one CS1 so rack 0's circuits disagree.
	if _, err := net.CS1(0, 1).Apply([]circuit.Change{{A: 2, B: 0}}); err != nil { // A=backup member, B=rack 0
		t.Fatal(err)
	}
	if _, err := net.EdgeServingRack(0, 0); err == nil {
		t.Error("split rack not detected")
	}
}

func TestInterfaceHealthOracle(t *testing.T) {
	net := newNet(t, 4, 1)
	id := net.EdgeGroup(0).Members[0]
	if !net.InterfaceUp(id, 0) {
		t.Error("fresh interface down")
	}
	if err := net.InjectPortFailure(id, 3); err != nil {
		t.Fatal(err)
	}
	if net.InterfaceUp(id, 3) {
		t.Error("failed port reported up")
	}
	if !net.InterfaceUp(id, 0) {
		t.Error("unrelated port reported down")
	}
	net.InjectNodeFailure(id)
	if net.InterfaceUp(id, 0) {
		t.Error("port on failed node reported up")
	}
	if err := net.InjectPortFailure(id, 99); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestLogicalFatTreeInvariant(t *testing.T) {
	// Table 3's "no bandwidth loss / no path dilation" rests on the
	// logical topology being invariant under replacement.
	net := newNet(t, 4, 1)
	before, err := net.LogicalFatTree(1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, failed := range []SwitchID{
		net.EdgeGroup(0).slots[0],
		net.AggGroup(2).slots[1],
		net.CoreGroup(1).slots[0],
	} {
		if _, _, err := net.Replace(failed); err != nil {
			t.Fatal(err)
		}
	}
	after, err := net.LogicalFatTree(1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Nodes) != len(after.Nodes) || before.NumLinks() != after.NumLinks() {
		t.Fatal("logical topology changed size after replacements")
	}
	for i := range before.Links {
		if before.Links[i] != after.Links[i] {
			t.Fatalf("logical link %d changed after replacements", i)
		}
	}
}

func TestBackupRatio(t *testing.T) {
	net := newNet(t, 48, 1)
	if got := net.BackupRatio(); got < 0.0416 || got > 0.0417 {
		t.Errorf("backup ratio k=48 n=1 = %v, want ~4.17%%", got)
	}
}

func TestRandomReplacementStress(t *testing.T) {
	// Drive random failures and repairs across every group kind and check
	// full invariants after each step. This is the architecture's core
	// safety property.
	rng := rand.New(rand.NewSource(7))
	net := newNet(t, 6, 2)
	var offline []SwitchID
	for step := 0; step < 300; step++ {
		if len(offline) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(offline))
			if err := net.Release(offline[i]); err != nil {
				t.Fatalf("step %d release: %v", step, err)
			}
			offline = append(offline[:i], offline[i+1:]...)
		} else {
			g := net.Group(GroupID(rng.Intn(net.NumGroups())))
			victim := g.slots[rng.Intn(len(g.slots))]
			_, _, err := net.Replace(victim)
			if errors.Is(err, ErrNoBackup) {
				continue // group exhausted; acceptable
			}
			if err != nil {
				t.Fatalf("step %d replace: %v", step, err)
			}
			offline = append(offline, victim)
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("step %d: invariants violated: %v", step, err)
		}
	}
}

func TestSideRing(t *testing.T) {
	net := newNet(t, 4, 1)
	for layer := 1; layer <= 3; layer++ {
		ring := net.SideRing(layer, 0)
		if len(ring) != 2 {
			t.Errorf("layer %d ring has %d switches, want k/2", layer, len(ring))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SideRing(0, 0) did not panic")
		}
	}()
	net.SideRing(0, 0)
}

func TestKindOfGroups(t *testing.T) {
	net := newNet(t, 4, 0)
	if net.EdgeGroup(0).Kind != topo.KindEdge {
		t.Error("edge group kind wrong")
	}
	if net.AggGroup(0).Kind != topo.KindAgg {
		t.Error("agg group kind wrong")
	}
	if net.CoreGroup(0).Kind != topo.KindCore {
		t.Error("core group kind wrong")
	}
	// With n=0 there are no backups; any replacement must fail.
	if _, _, err := net.Replace(net.EdgeGroup(0).slots[0]); !errors.Is(err, ErrNoBackup) {
		t.Errorf("n=0 replacement err = %v, want ErrNoBackup", err)
	}
}
