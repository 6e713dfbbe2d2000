package ctlnet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// The fleet harness drives N switches' keep-alive load through one server to
// measure control-plane I/O throughput. Each agent speaks for GroupSize
// co-located switches of the model on one connection, one batched keep-alive
// frame per tick, so a fleet of thousands of switches can ride a few dozen
// connections; the server side is one reader goroutine per connection plus
// the one detector.

// fleetDialers is how many agents RunFleet dials at once.
const fleetDialers = 32

// FleetConfig sizes one fleet throughput run.
type FleetConfig struct {
	// Agents is the total number of keep-aliving switch identities: switches
	// 0 … Agents-1 of the k=K model, so at most its switch count.
	Agents int
	// GroupSize is how many switches one agent's session speaks for.
	// Default 50.
	GroupSize int
	// Interval is the keep-alive flush interval. Default 10 ms.
	Interval time.Duration
	// Warmup runs before the measurement window opens. Default 200 ms.
	Warmup time.Duration
	// Duration is the measurement window. Default 1 s.
	Duration time.Duration
	// K is the in-model fat-tree arity backing the server. Default 8.
	K int
}

func (c *FleetConfig) setDefaults() {
	if c.GroupSize == 0 {
		c.GroupSize = 50
	}
	if c.Interval == 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.K == 0 {
		c.K = 8
	}
}

// FleetResult is one fleet run's measurement.
type FleetResult struct {
	Agents    int
	Conns     int
	GroupSize int
	// KAs is how many keep-alives the server counted in the window.
	KAs int64
	// KAPerSec is the sustained server-side keep-alive ingest rate.
	KAPerSec float64
	// ServerGoroutines is the steady-state goroutine count attributable to
	// the server: total at measurement time minus the harness's own client
	// goroutines (two per agent) and the baseline captured before the
	// server started: one reader per connection (Conns), the detector, the
	// accept loop, and the consensus node's loop and listener —
	// O(connections), never O(agents), which is what the soak test bounds.
	ServerGoroutines int
	// WireErrors and Batches are the server's ctlnet.wire_errors and
	// ctlnet.ka_batches counters at the end of the window.
	WireErrors int64
	Batches    int64
}

// RunFleet builds a one-replica controller cluster, dials Agents/GroupSize
// agents against it, and measures sustained keep-alive throughput over
// cfg.Duration.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	cfg.setDefaults()
	baseline := runtime.NumGoroutine()
	nw, err := sbnet.New(sbnet.Config{K: cfg.K, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		return nil, err
	}
	if cfg.Agents > nw.NumSwitches() {
		return nil, fmt.Errorf("ctlnet: FleetConfig.Agents is %d; the k=%d model holds %d switches", cfg.Agents, cfg.K, nw.NumSwitches())
	}
	reg := obs.NewRegistry()
	ctl := controller.New(nw, controller.Config{
		ProbeInterval: cfg.Interval,
		Metrics:       reg,
	})
	rs, err := startReplicas([]*controller.Controller{ctl}, []ServerConfig{{
		Interval: cfg.Interval,
		// The fleet run measures ingest, not detection: a huge miss
		// threshold keeps the detector from declaring anyone dead under
		// scheduler jitter at thousands of agents.
		MissThreshold: 1 << 20,
		Obs:           &obs.Bus{},
	}}, 0, 0, reg)
	if err != nil {
		return nil, err
	}
	defer rs[0].Kill()
	srv := rs[0].Server

	// Agents dial fleetDialers at a time: a dial's leader round trip waits
	// behind the agents already keep-aliving, so one by one a fleet that
	// loads the host takes minutes to stand up.
	agents := make([]*Agent, (cfg.Agents+cfg.GroupSize-1)/cfg.GroupSize)
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()
	errs := make([]error, len(agents))
	next := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for range fleetDialers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue // one dial failed: the fleet does not stand up
				}
				ids := make([]sbnet.SwitchID, 0, cfg.GroupSize)
				for id := i * cfg.GroupSize; id < min((i+1)*cfg.GroupSize, cfg.Agents); id++ {
					ids = append(ids, sbnet.SwitchID(id))
				}
				if agents[i], errs[i] = dialAgent([]string{srv.Addr()}, ids, cfg.Interval); errs[i] != nil {
					failed.Store(true)
					errs[i] = fmt.Errorf("ctlnet: fleet agent for switch %d: %w", ids[0], errs[i])
				}
			}
		}()
	}
	for i := range agents {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	time.Sleep(cfg.Warmup)
	kaCounter := reg.Counter("ctlnet.keepalives")
	start := kaCounter.Value()
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	delta := kaCounter.Value() - start
	elapsed := time.Since(t0)
	// Client side costs two goroutines per agent (keep-alive + reader); what
	// remains above the pre-server baseline is the server's own footprint.
	goro := runtime.NumGoroutine() - 2*len(agents) - baseline

	return &FleetResult{
		Agents:           cfg.Agents,
		Conns:            len(agents),
		GroupSize:        cfg.GroupSize,
		KAs:              delta,
		KAPerSec:         float64(delta) / elapsed.Seconds(),
		ServerGoroutines: goro,
		WireErrors:       reg.Counter("ctlnet.wire_errors").Value(),
		Batches:          reg.Counter("ctlnet.ka_batches").Value(),
	}, nil
}
