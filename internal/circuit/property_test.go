package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickSnapshotRestoreIdentity: for any sequence of random operations,
// capturing the configuration, operating further, then Restore reproduces
// the captured configuration exactly.
func TestQuickSnapshotRestoreIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(14)
		s, err := New("q", Crosspoint, n)
		if err != nil {
			return false
		}
		mutate := func(steps int) bool {
			for i := 0; i < steps; i++ {
				switch r.Intn(2) {
				case 0:
					if _, err := connect(s, r.Intn(n), r.Intn(n)); err != nil {
						return false
					}
				case 1:
					if _, err := connect(s, r.Intn(n), Unconnected); err != nil {
						return false
					}
				}
			}
			return true
		}
		if !mutate(1 + r.Intn(20)) {
			return false
		}
		snap := config(s)
		if !mutate(1 + r.Intn(20)) {
			return false
		}
		if _, err := s.Restore(snap); err != nil {
			return false
		}
		for a := 0; a < n; a++ {
			if s.BOf(a) != snap[a] {
				return false
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickApplyIsIdempotent: applying the same batch twice leaves the same
// configuration (the controller may re-send reconfiguration requests after a
// timeout; the crossbar must converge).
func TestQuickApplyIsIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		s, err := New("q", Crosspoint, n)
		if err != nil {
			return false
		}
		// A valid batch: distinct A ports, distinct B ports.
		perm := r.Perm(n)
		count := 1 + r.Intn(n-1)
		var batch []Change
		for i := 0; i < count; i++ {
			batch = append(batch, Change{A: i, B: perm[i]})
		}
		if _, err := s.Apply(batch); err != nil {
			return false
		}
		first := config(s)
		if _, err := s.Apply(batch); err != nil {
			return false
		}
		second := config(s)
		for i := range first {
			if first[i] != second[i] {
				return false
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
