package failure

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sharebackup/internal/sweep"
)

// Monte-Carlo availability simulation for Section 5.1: switches fail as
// independent Poisson processes (rate 1/MTBF) and repair after exponential
// MTTR; the question is how often a failure group has more than n switches
// down at once — i.e. how often ShareBackup's shared pool would be
// insufficient. The analytic answer is BinomialTail at the steady-state
// unavailability; the simulation validates it including the time dynamics.

// AvailabilityConfig parameterizes the simulation.
type AvailabilityConfig struct {
	// GroupSize is the number of switches sharing the pool (k/2).
	GroupSize int
	// Backups is the pool size n.
	Backups int
	// MTBF and MTTR are in hours. Defaults approximate the paper's
	// figures: four-nines availability with ~5-minute repairs ->
	// MTTR 1/12 h, MTBF ~833 h.
	MTBF, MTTR float64
	// Horizon is the simulated time in hours. Default 1e6.
	Horizon float64
	// Seed drives the simulation.
	Seed int64
	// Shards splits the horizon into this many independent simulations of
	// Horizon/Shards hours each, run as one sweep (each shard seeded from
	// its own substream of Seed) and summed. Shards <= 1 runs the single
	// sequential simulation; results differ between shard counts (different
	// RNG streams) but are identical for any Workers value at a fixed
	// Shards.
	Shards int
	// Workers sizes the sweep worker pool (0 = GOMAXPROCS). Only
	// meaningful with Shards > 1.
	Workers int
}

// Check rejects a field that breaks its rule, by name.
func (c AvailabilityConfig) Check() error { return c.setDefaults() }

func (c *AvailabilityConfig) setDefaults() error {
	if c.GroupSize <= 0 {
		return fmt.Errorf("failure: GroupSize=%d must be positive", c.GroupSize)
	}
	if c.Backups < 0 {
		return fmt.Errorf("failure: Backups=%d must be non-negative", c.Backups)
	}
	if c.MTTR == 0 {
		c.MTTR = 1.0 / 12 // 5 minutes
	}
	if c.MTBF == 0 {
		c.MTBF = c.MTTR * (1 - SwitchFailureRate) / SwitchFailureRate
	}
	if c.MTBF <= 0 || c.MTTR <= 0 {
		return fmt.Errorf("failure: MTBF=%v and MTTR=%v must be positive", c.MTBF, c.MTTR)
	}
	if c.Horizon == 0 {
		c.Horizon = 1e6
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("failure: Horizon=%v must be positive", c.Horizon)
	}
	return nil
}

// AvailabilityResult summarizes a simulation.
type AvailabilityResult struct {
	// Failures is the number of switch-failure events simulated.
	Failures int
	// OverflowEvents counts transitions into the ">n concurrently down"
	// state — moments a failure found the backup pool empty.
	OverflowEvents int
	// OverflowFraction is the fraction of simulated time spent with more
	// than n switches down.
	OverflowFraction float64
	// Unavailability is the measured per-switch down-time fraction (for
	// calibration against the analytic input).
	Unavailability float64
	// AnalyticOverflow is BinomialTail(GroupSize, Backups, p) at the
	// measured unavailability, for comparison.
	AnalyticOverflow float64
}

// availabilitySlice is one shard's raw tallies over its horizon slice.
type availabilitySlice struct {
	Failures, OverflowEvents int
	DownTime, OverflowTime   float64
}

// simulateSlice runs the event loop for one horizon slice starting from the
// all-up state. The process mixes in O(MTTR), so for slices much longer than
// the repair time the cold start is statistically negligible.
func simulateSlice(cfg *AvailabilityConfig, seed int64, horizon float64) availabilitySlice {
	rng := rand.New(rand.NewSource(seed))
	// next[i] is switch i's next transition time; down[i] its state.
	next := make([]float64, cfg.GroupSize)
	down := make([]bool, cfg.GroupSize)
	for i := range next {
		next[i] = rng.ExpFloat64() * cfg.MTBF
	}
	var sl availabilitySlice
	now := 0.0
	downCount := 0
	for now < horizon {
		// Next transition.
		i := 0
		for j := 1; j < cfg.GroupSize; j++ {
			if next[j] < next[i] {
				i = j
			}
		}
		t := next[i]
		if t > horizon {
			t = horizon
		}
		dt := t - now
		sl.DownTime += float64(downCount) * dt
		if downCount > cfg.Backups {
			sl.OverflowTime += dt
		}
		now = t
		if now >= horizon {
			break
		}
		if down[i] {
			down[i] = false
			downCount--
			next[i] = now + rng.ExpFloat64()*cfg.MTBF
		} else {
			down[i] = true
			downCount++
			sl.Failures++
			if downCount == cfg.Backups+1 {
				sl.OverflowEvents++
			}
			next[i] = now + rng.ExpFloat64()*cfg.MTTR
		}
	}
	return sl
}

// SimulateGroupAvailability runs the Monte-Carlo simulation event by event.
// With cfg.Shards > 1 the horizon is split into independent slices swept
// across cfg.Workers goroutines; the merged result is bit-identical for any
// worker count.
func SimulateGroupAvailability(cfg AvailabilityConfig) (*AvailabilityResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	var total availabilitySlice
	if cfg.Shards <= 1 {
		total = simulateSlice(&cfg, cfg.Seed, cfg.Horizon)
	} else {
		sliceHorizon := cfg.Horizon / float64(cfg.Shards)
		slices, err := sweep.Run(context.Background(), sweep.Config{
			Name: "montecarlo", Shards: cfg.Shards, Seed: cfg.Seed,
			Workers: cfg.Workers,
		}, func(_ context.Context, sh sweep.Shard) (availabilitySlice, error) {
			return simulateSlice(&cfg, sh.Seed, sliceHorizon), nil
		})
		if err != nil {
			return nil, err
		}
		for _, sl := range slices {
			total.Failures += sl.Failures
			total.OverflowEvents += sl.OverflowEvents
			total.DownTime += sl.DownTime
			total.OverflowTime += sl.OverflowTime
		}
	}
	res := &AvailabilityResult{
		Failures:         total.Failures,
		OverflowEvents:   total.OverflowEvents,
		OverflowFraction: total.OverflowTime / cfg.Horizon,
		Unavailability:   total.DownTime / (cfg.Horizon * float64(cfg.GroupSize)),
	}
	res.AnalyticOverflow = BinomialTail(cfg.GroupSize, cfg.Backups, res.Unavailability)
	if math.IsNaN(res.AnalyticOverflow) {
		res.AnalyticOverflow = 0
	}
	return res, nil
}
