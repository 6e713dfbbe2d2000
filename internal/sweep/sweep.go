// Package sweep is the experiment sweep engine: it shards a trial space
// (failover trials, Monte-Carlo horizons, coflow-replay scenarios) across a
// worker pool so paper-scale runs use every core, while keeping the results
// bit-identical to a single-threaded run.
//
// Determinism rests on two rules. First, every shard draws randomness from
// its own substream, shard i's seeded as SubSeed(rootSeed, i) — a pure
// function of the sweep's root seed and the shard's position, never of
// worker count or goroutine scheduling. Second, Run returns the per-shard
// results in shard-index order, so callers merge by folding a slice whose
// layout does not depend on completion order.
//
// Progress is published through the obs bus (one KindSweepShardDone event
// per shard, naming it "<sweep>/<index>") and registry (sweep.shards_done /
// sweep.shards_total / sweep.trials_per_sec), so /varz and
// -trace observe a sweep like any other subsystem. There is no checkpoint:
// every paper-scale sweep but Fig. 1c finishes in tens of milliseconds, and
// Fig. 1c's shards hold simulator state, not something worth serializing.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharebackup/internal/obs"
)

// Shard is one unit of a sweep's trial space.
type Shard struct {
	// Index is the shard's 0-based position in the sweep.
	Index int
	// Seed is the shard's RNG substream seed, SubSeed(rootSeed, Index).
	// Shard functions must draw all their randomness from it.
	Seed int64
}

// SubSeed derives a shard's RNG substream seed from the sweep's root seed
// with a splitmix64 finalizer, so substreams are statistically independent
// and the mapping depends only on (root, index).
func SubSeed(root int64, index int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*uint64(index+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Config parameterizes one sweep.
type Config struct {
	// Name identifies the sweep in events and errors.
	Name string
	// Shards is the trial-space size: fn runs once per index in [0, Shards).
	Shards int
	// Seed is the root seed shard substreams derive from.
	Seed int64
	// Workers sizes the worker pool; 0 or negative means GOMAXPROCS.
	// Results are identical for every worker count.
	Workers int
	// Bus receives one KindSweepShardDone event per completed shard (nil =
	// obs.Default).
	Bus *obs.Bus
	// Registry receives the progress gauges (nil = obs.DefaultRegistry).
	// Gauge names are process-global; run one sweep at a time per registry
	// if you scrape them.
	Registry *obs.Registry
}

// Run executes fn over every shard on a worker pool and returns the results
// in shard-index order. fn must be safe for concurrent invocation across
// distinct shards and must take all randomness from its Shard's Seed. The
// first shard error cancels the rest and is returned; a canceled ctx returns
// ctx.Err().
func Run[T any](ctx context.Context, cfg Config, fn func(context.Context, Shard) (T, error)) ([]T, error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil shard function")
	}
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("sweep: Shards=%d must be positive", cfg.Shards)
	}
	if cfg.Name == "" {
		cfg.Name = "sweep"
	}
	bus := cfg.Bus
	if bus == nil {
		bus = obs.Default
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.DefaultRegistry
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Shards {
		workers = cfg.Shards
	}

	results := make([]T, cfg.Shards)
	prog := newProgress(cfg, bus, reg)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Shards {
					return
				}
				if runCtx.Err() != nil {
					return
				}
				sh := Shard{Index: i, Seed: SubSeed(cfg.Seed, i)}
				res, err := fn(runCtx, sh)
				if err != nil {
					fail(fmt.Errorf("sweep: %s shard %d: %w", cfg.Name, i, err))
					return
				}
				results[i] = res
				prog.complete(sh)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// progress publishes shard completions to the registry gauges and the bus.
type progress struct {
	cfg   Config
	bus   *obs.Bus
	start time.Time

	mu    sync.Mutex
	done  int
	total *obs.Gauge
	doneG *obs.Gauge
	tps   *obs.Gauge
}

func newProgress(cfg Config, bus *obs.Bus, reg *obs.Registry) *progress {
	p := &progress{
		cfg: cfg, bus: bus, start: time.Now(),
		total: reg.Gauge("sweep.shards_total"),
		doneG: reg.Gauge("sweep.shards_done"),
		tps:   reg.Gauge("sweep.trials_per_sec"),
	}
	p.total.Set(int64(cfg.Shards))
	p.doneG.Set(0)
	p.tps.Set(0)
	return p
}

// complete records one executed shard: gauges first, then the bus event
// naming the shard and carrying the running completion count.
func (p *progress) complete(sh Shard) {
	p.mu.Lock()
	p.done++
	done := p.done
	elapsed := time.Since(p.start)
	var tps float64
	if elapsed > 0 {
		tps = float64(p.done) / elapsed.Seconds()
	}
	p.doneG.Set(int64(done))
	p.tps.Set(int64(tps))
	p.mu.Unlock()

	if p.bus.Enabled() {
		ev := obs.NewEvent(obs.KindSweepShardDone, elapsed)
		ev.Wall = true
		ev.Count = int32(done)
		ev.Detail = fmt.Sprintf("%s/%d", p.cfg.Name, sh.Index)
		p.bus.Emit(ev)
	}
}

// Fingerprint hashes any JSON-marshalable value (FNV-1a over its canonical
// encoding). Sweeps use it to assert that merged aggregates are bit-identical
// across worker counts.
func Fingerprint(v interface{}) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("sweep: fingerprint: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}
