package circuit

import (
	"math/rand"
	"testing"
	"time"
)

func newSwitch(t *testing.T, n int) *Switch {
	t.Helper()
	s, err := New("cs", Crosspoint, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// config is the switch's A-side -> B-side port map, the form Restore takes.
func config(s *Switch) []int { return append([]int(nil), s.aToB...) }

// connect applies one circuit as its own reconfiguration event.
func connect(s *Switch, a, b int) (time.Duration, error) {
	return s.Apply([]Change{{A: a, B: b}})
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", Crosspoint, 0); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := New("x", Crosspoint, -3); err == nil {
		t.Error("negative ports accepted")
	}
	if _, err := New("x", MEMS2D, 33); err == nil {
		t.Error("MEMS switch beyond 32 ports accepted")
	}
	if _, err := New("x", MEMS2D, 32); err != nil {
		t.Errorf("32-port MEMS rejected: %v", err)
	}
	if _, err := New("x", Crosspoint, 256); err != nil {
		t.Errorf("256-port crosspoint rejected: %v", err)
	}
	if _, err := New("x", Crosspoint, 257); err == nil {
		t.Error("crosspoint beyond 256 ports accepted")
	}
}

func TestTechnologyConstants(t *testing.T) {
	if Crosspoint.ReconfigDelay() != 70*time.Nanosecond {
		t.Errorf("crosspoint delay = %v, want 70ns", Crosspoint.ReconfigDelay())
	}
	if MEMS2D.ReconfigDelay() != 40*time.Microsecond {
		t.Errorf("MEMS delay = %v, want 40µs", MEMS2D.ReconfigDelay())
	}
	if Crosspoint.String() != "crosspoint" || MEMS2D.String() != "2D-MEMS" {
		t.Error("technology names wrong")
	}
}

func TestConnectDisconnect(t *testing.T) {
	s := newSwitch(t, 8)
	if _, err := connect(s, 2, 5); err != nil {
		t.Fatal(err)
	}
	if s.BOf(2) != 5 || s.AOf(5) != 2 {
		t.Errorf("circuit not established: BOf(2)=%d AOf(5)=%d", s.BOf(2), s.AOf(5))
	}
	if s.BOf(0) != Unconnected {
		t.Error("untouched port connected")
	}
	if _, err := connect(s, 2, Unconnected); err != nil {
		t.Fatal(err)
	}
	if s.BOf(2) != Unconnected || s.AOf(5) != Unconnected {
		t.Error("circuit not torn down")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConnectStealsPorts(t *testing.T) {
	// Reconnecting a port atomically moves the circuit — this is exactly
	// the failover operation: B-side port of a host moves from the failed
	// switch's A-port to the backup's A-port.
	s := newSwitch(t, 8)
	if _, err := connect(s, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := connect(s, 1, 3); err != nil { // B3 moves from A0 to A1
		t.Fatal(err)
	}
	if s.BOf(0) != Unconnected {
		t.Errorf("old circuit survived: BOf(0)=%d", s.BOf(0))
	}
	if s.BOf(1) != 3 || s.AOf(3) != 1 {
		t.Error("new circuit not established")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplyBatchAtomicSwap(t *testing.T) {
	s := newSwitch(t, 4)
	if _, err := s.Apply([]Change{{0, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	// Swap both circuits in one batch: A0<->B1, A1<->B0.
	if _, err := s.Apply([]Change{{0, 1}, {1, 0}}); err != nil {
		t.Fatalf("atomic swap rejected: %v", err)
	}
	if s.BOf(0) != 1 || s.BOf(1) != 0 {
		t.Errorf("swap not applied: %v %v", s.BOf(0), s.BOf(1))
	}
	if s.Reconfigs() != 2 {
		t.Errorf("reconfigs = %d, want 2", s.Reconfigs())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplyErrors(t *testing.T) {
	s := newSwitch(t, 4)
	if _, err := s.Apply([]Change{{A: -1, B: 0}}); err == nil {
		t.Error("negative A port accepted")
	}
	if _, err := s.Apply([]Change{{A: 0, B: 4}}); err == nil {
		t.Error("out-of-range B port accepted")
	}
	if _, err := s.Apply([]Change{{0, 1}, {0, 2}}); err == nil {
		t.Error("duplicate A port in batch accepted")
	}
	if _, err := s.Apply([]Change{{0, 1}, {1, 1}}); err == nil {
		t.Error("duplicate B port in batch accepted")
	}
	if s.Reconfigs() != 0 {
		t.Errorf("failed batches counted as reconfigs: %d", s.Reconfigs())
	}
}

func TestFailedSwitchRejectsReconfiguration(t *testing.T) {
	s := newSwitch(t, 4)
	if _, err := connect(s, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.Fail()
	if !s.failed {
		t.Error("switch not failed after Fail()")
	}
	if _, err := connect(s, 1, 1); err == nil {
		t.Error("failed switch accepted reconfiguration")
	}
	// Configuration memory survives the failure.
	if s.BOf(0) != 0 {
		t.Error("failure erased circuits")
	}
	s.Repair()
	if _, err := connect(s, 1, 1); err != nil {
		t.Errorf("repaired switch rejected reconfiguration: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := newSwitch(t, 6)
	for i := 0; i < 4; i++ {
		if _, err := connect(s, i, i); err != nil {
			t.Fatal(err)
		}
	}
	snap := config(s)
	// Scramble.
	if _, err := s.Apply([]Change{{0, 3}, {3, 0}, {1, Unconnected}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if s.BOf(i) != i {
			t.Errorf("after restore, BOf(%d) = %d, want %d", i, s.BOf(i), i)
		}
	}
	if s.BOf(4) != Unconnected {
		t.Error("restore connected a port that was free in the snapshot")
	}
	if _, err := s.Restore([]int{0}); err == nil {
		t.Error("short snapshot accepted")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestReconfigDelayAccounting(t *testing.T) {
	s, err := New("m", MEMS2D, 8)
	if err != nil {
		t.Fatal(err)
	}
	// One technology delay per reconfiguration event, whatever the batch
	// size: the crossbar resets all its circuits in one operation.
	for _, batch := range [][]Change{{{0, 0}}, {{1, 1}, {2, 2}, {3, Unconnected}}} {
		d, err := s.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if d != 40*time.Microsecond {
			t.Errorf("%d-change batch cost %v, want one 40µs delay", len(batch), d)
		}
	}
	if s.Reconfigs() != 2 {
		t.Errorf("reconfigs = %d, want 2", s.Reconfigs())
	}
}

// TestMatchingInvariantRandomOps drives a switch with random operations and
// checks the one-to-one matching invariant after every step.
func TestMatchingInvariantRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := newSwitch(t, 16)
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			_, err := connect(s, rng.Intn(16), rng.Intn(16))
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case 1:
			if _, err := connect(s, rng.Intn(16), Unconnected); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case 2:
			batch := []Change{
				{A: rng.Intn(8), B: rng.Intn(16)},
				{A: 8 + rng.Intn(8), B: Unconnected},
			}
			if _, err := s.Apply(batch); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("op %d broke the matching: %v", i, err)
		}
		// No two A ports share a B port.
		seen := make(map[int]int)
		for a := 0; a < 16; a++ {
			b := s.BOf(a)
			if b == Unconnected {
				continue
			}
			if prev, dup := seen[b]; dup {
				t.Fatalf("op %d: B%d claimed by A%d and A%d", i, b, prev, a)
			}
			seen[b] = a
		}
	}
}
