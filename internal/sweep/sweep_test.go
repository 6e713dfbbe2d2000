package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sharebackup/internal/obs"
)

// noisyShard is a representative shard function: it draws from the shard's
// substream and burns a scheduling-dependent amount of time, so any
// order-dependence in the engine would show up as a fingerprint mismatch.
func noisyShard(_ context.Context, sh Shard) (float64, error) {
	rng := rand.New(rand.NewSource(sh.Seed))
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += rng.Float64()
	}
	if sh.Index%3 == 0 {
		time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
	}
	return sum, nil
}

func TestSubSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := SubSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SubSeed(42, %d) == SubSeed(42, %d) == %d", i, prev, s)
		}
		seen[s] = i
		if s != SubSeed(42, i) {
			t.Fatalf("SubSeed(42, %d) not deterministic", i)
		}
	}
	if SubSeed(1, 0) == SubSeed(2, 0) {
		t.Fatal("different roots produced the same substream seed")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var want uint64
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 13} {
		res, err := Run(context.Background(), Config{
			Name: "det", Shards: 40, Seed: 7, Workers: workers,
			Registry: obs.NewRegistry(), Bus: &obs.Bus{},
		}, noisyShard)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp, err := Fingerprint(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("workers=%d: fingerprint %x != %x — results depend on worker count", workers, fp, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Shards: 0}, noisyShard); err == nil {
		t.Error("Shards=0 accepted")
	}
	if _, err := Run[int](context.Background(), Config{Shards: 1}, nil); err == nil {
		t.Error("nil fn accepted")
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := fmt.Errorf("boom")
	_, err := Run(context.Background(), Config{
		Name: "err", Shards: 20, Workers: 4,
		Registry: obs.NewRegistry(), Bus: &obs.Bus{},
	}, func(_ context.Context, sh Shard) (int, error) {
		if sh.Index == 11 {
			return 0, boom
		}
		return sh.Index, nil
	})
	if err == nil || !strings.Contains(err.Error(), "shard 11") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want shard-11 boom", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(ctx, Config{
			Name: "cancel", Shards: 10000, Workers: 2,
			Registry: obs.NewRegistry(), Bus: &obs.Bus{},
		}, func(c context.Context, sh Shard) (int, error) {
			if ran.Add(1) == 5 {
				cancel()
			}
			return sh.Index, nil
		})
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the sweep")
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("%d shards ran after cancellation", n)
	}
}

func TestProgressGaugesAndEvents(t *testing.T) {
	reg := obs.NewRegistry()
	bus := &obs.Bus{}
	ring := obs.NewRing(128)
	bus.Attach(ring)
	start := time.Now()
	if _, err := Run(context.Background(), Config{
		Name: "prog", Shards: 8, Seed: 1, Workers: 2,
		Registry: reg, Bus: bus,
	}, noisyShard); err != nil {
		t.Fatal(err)
	}
	// One shard is one trial: the rate is at least 8 shards over the
	// whole run.
	if got, floor := reg.Gauge("sweep.trials_per_sec").Value(), int64(8/time.Since(start).Seconds()); got < floor || got <= 0 {
		t.Errorf("trials_per_sec = %d, want at least %d shards per second", got, floor)
	}
	if got := reg.Gauge("sweep.shards_total").Value(); got != 8 {
		t.Errorf("shards_total = %d, want 8", got)
	}
	if got := reg.Gauge("sweep.shards_done").Value(); got != 8 {
		t.Errorf("shards_done = %d, want 8", got)
	}
	evs := ring.Events()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8 shard-done events", len(evs))
	}
	shards := make(map[string]bool)
	for _, ev := range evs {
		if ev.Kind != obs.KindSweepShardDone {
			t.Errorf("unexpected event %v", ev)
		}
		shards[ev.Detail] = true
	}
	for i := 0; i < 8; i++ {
		if name := fmt.Sprintf("prog/%d", i); !shards[name] {
			t.Errorf("no event names shard %s; got %v", name, shards)
		}
	}
}
