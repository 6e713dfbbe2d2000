package fluid

import (
	"sync"
	"testing"

	"sharebackup/internal/obs"
)

// Concurrent simulators sharing one Telemetry (the sweep-worker shape:
// process-default telemetry installed, every shard building its own
// Simulator) must be race-free: the shared counters and histograms are
// atomic. Run under -race this test is the proof; without -race it still
// checks the merged counters.
func TestConcurrentSimulatorsShareDefaultTelemetry(t *testing.T) {
	g, path := twoLinkTopo(t)
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	SetDefaultTelemetry(tel)
	defer SetDefaultTelemetry(nil)

	const sims = 8
	var wg sync.WaitGroup
	errs := make([]error, sims)
	for w := 0; w < sims; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim := New(g) // picks up the process default
			for id := 0; id < 4; id++ {
				if err := sim.AddFlow(FlowID(id), 2, float64(id), path); err != nil {
					errs[w] = err
					return
				}
			}
			if err := sim.RunToCompletion(); err != nil {
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := tel.FlowsCompleted.Value(); got != sims*4 {
		t.Fatalf("completed flows = %d, want %d", got, sims*4)
	}
}
