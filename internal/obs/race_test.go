package obs

// Race-detector exercise of the event bus: concurrent emitters, span
// starts, registry updates, and sink attach/detach all running at once.
// The Makefile runs this package under `go test -race`.

import (
	"sync"
	"testing"
	"time"
)

func TestBusConcurrentEmittersAndAttachDetach(t *testing.T) {
	b := &Bus{}
	ring := NewRing(256)
	b.Attach(ring)

	const (
		emitters = 8
		perEmit  = 200
	)
	var wg sync.WaitGroup

	// Concurrent emitters.
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				if !b.Enabled() {
					continue
				}
				ev := NewEvent(KindFailureDeclared, time.Duration(i))
				ev.Switch = int32(g)
				ev.Count = int32(i)
				b.Emit(ev)
			}
		}(g)
	}

	// Concurrent span starts: the ID counter is shared, so IDs must stay
	// unique.
	ids := make([][]uint64, 2)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				ids[g] = append(ids[g], b.StartSpan(TraceContext{}).ID)
			}
		}(g)
	}

	// Concurrent sink attach/detach.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			extra := NewRing(16)
			b.Attach(extra)
			b.Detach(extra)
		}
	}()

	wg.Wait()
	// The permanently attached ring must have seen a consistent stream:
	// strictly increasing sequence numbers.
	evs := ring.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence numbers out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if len(evs) == 0 {
		t.Fatal("no events delivered")
	}
	seen := make(map[uint64]bool)
	for _, id := range append(ids[0], ids[1]...) {
		if seen[id] {
			t.Fatalf("span ID %d started twice", id)
		}
		seen[id] = true
	}
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared.counter")
			gg := r.Gauge("shared.gauge")
			for i := 0; i < 1000; i++ {
				c.Inc()
				gg.Add(1)
				gg.Add(-1)
			}
		}()
	}
	// Export concurrently with the updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.PromText()
		}
	}()
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("shared.gauge").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}
