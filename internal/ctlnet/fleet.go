package ctlnet

import (
	"fmt"
	"runtime"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// The fleet harness drives N agents' keep-alive load through one server to
// measure control-plane I/O throughput at scales far beyond the fat-tree
// model (ServerConfig.FleetSize admits the synthetic IDs). Agents ride
// AgentGroup sessions — GroupSize co-located agents per connection, one
// batched keep-alive frame per flush — so a 10k-agent fleet is a few
// hundred connections and a few hundred client goroutines, and the server
// side is one reader goroutine per connection plus the one detector.

// FleetConfig sizes one fleet throughput run.
type FleetConfig struct {
	// Agents is the total number of keep-aliving switch identities.
	Agents int
	// GroupSize is how many agents share one AgentGroup session. Default 50.
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
	// goroutines (two per AgentGroup) and the baseline captured before the
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
// batched sessions against it, and measures sustained keep-alive throughput
// over cfg.Duration.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	cfg.setDefaults()
	baseline := runtime.NumGoroutine()
	nw, err := sbnet.New(sbnet.Config{K: cfg.K, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		return nil, err
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
		// scheduler jitter at 10k agents.
		MissThreshold: 1 << 20,
		FleetSize:     cfg.Agents,
		Obs:           &obs.Bus{},
	}}, 0, 0, reg)
	if err != nil {
		return nil, err
	}
	defer rs[0].Kill()
	srv := rs[0].Server

	var groups []*AgentGroup
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	for off := 0; off < cfg.Agents; off += cfg.GroupSize {
		end := off + cfg.GroupSize
		if end > cfg.Agents {
			end = cfg.Agents
		}
		ids := make([]sbnet.SwitchID, 0, end-off)
		for id := off; id < end; id++ {
			ids = append(ids, sbnet.SwitchID(id))
		}
		g, err := DialGroup(srv.Addr(), ids, cfg.Interval)
		if err != nil {
			return nil, fmt.Errorf("ctlnet: fleet group at %d: %w", off, err)
		}
		groups = append(groups, g)
	}

	time.Sleep(cfg.Warmup)
	kaCounter := reg.Counter("ctlnet.keepalives")
	start := kaCounter.Value()
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	delta := kaCounter.Value() - start
	elapsed := time.Since(t0)
	// Client side costs two goroutines per group (flush + drain); what
	// remains above the pre-server baseline is the server's own footprint.
	goro := runtime.NumGoroutine() - 2*len(groups) - baseline

	return &FleetResult{
		Agents:           cfg.Agents,
		Conns:            len(groups),
		GroupSize:        cfg.GroupSize,
		KAs:              delta,
		KAPerSec:         float64(delta) / elapsed.Seconds(),
		ServerGoroutines: goro,
		WireErrors:       reg.Counter("ctlnet.wire_errors").Value(),
		Batches:          reg.Counter("ctlnet.ka_batches").Value(),
	}, nil
}
