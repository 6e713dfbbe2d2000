package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sharebackup"
	"sharebackup/internal/circuit"
	"sharebackup/internal/ctlnet"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/routing"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/sweep"
	"sharebackup/internal/topo"
)

// The probes time single layers through their public functions at a small
// fixed size. They are the same for every workload: the traced run reports
// each layer's unit cost at this commit next to the workload's own numbers,
// so a reader can tell "the layer got slower" from "the workload used it
// more".

// probeSet collects the probes' values by per-layer metric name.
type probeSet map[string]float64

// runProbes runs every probe, each under its own root span.
func runProbes(tr *tracer) (probeSet, error) {
	out := make(probeSet)
	for _, p := range []struct {
		name string
		fn   func(probeSet) error
	}{
		{"ctlplane", probeCtlplane},
		{"controller", probeController},
		{"ctlnet.server", probeCtlnetServer},
		{"ctlnet.fleet", probeFleet},
		{"topo_sweep", probeTopoSweep},
	} {
		sp := tr.begin("bench.probe."+p.name, 0, -1)
		err := p.fn(out)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return out, nil
}

// raftCluster is three consensus nodes over loopback TCPTransport whose
// state machine just counts applied commands.
type raftCluster struct {
	nodes      []*ctlplane.Node
	transports []*ctlplane.TCPTransport
}

func newRaftCluster(n int, tick time.Duration) (*raftCluster, error) {
	rc := &raftCluster{}
	var mu sync.Mutex
	inboxes := make([]func(ctlplane.Message), n)
	deliver := func(m ctlplane.Message) {
		mu.Lock()
		f := inboxes[m.To]
		mu.Unlock()
		if f != nil {
			f(m)
		}
	}
	peers := make([]int, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = i
		t, err := ctlplane.NewTCPTransport(i, map[int]string{i: "127.0.0.1:0"}, deliver)
		if err != nil {
			rc.close()
			return nil, err
		}
		rc.transports = append(rc.transports, t)
		addrs[i] = t.Addr()
	}
	for _, t := range rc.transports {
		t.SetPeers(addrs)
	}
	for i := 0; i < n; i++ {
		var applied [][]byte
		var amu sync.Mutex
		node := ctlplane.NewNode(ctlplane.NodeConfig{
			Raft:      ctlplane.RaftConfig{ID: i, Peers: peers, Seed: uint64(i)*7 + 13},
			TickEvery: tick,
			Transport: rc.transports[i],
			Apply: func(data []byte) (any, error) {
				amu.Lock()
				defer amu.Unlock()
				applied = append(applied, data)
				return len(applied), nil
			},
			Snapshot: func() []byte {
				amu.Lock()
				defer amu.Unlock()
				return ctlplane.EncodeReplayLog(applied)
			},
			Restore: func(data []byte) error {
				rl, err := ctlplane.DecodeReplayLog(data)
				if err != nil {
					return err
				}
				amu.Lock()
				applied = rl.Commands
				amu.Unlock()
				return nil
			},
		})
		mu.Lock()
		inboxes[i] = node.Deliver
		mu.Unlock()
		rc.nodes = append(rc.nodes, node)
	}
	return rc, nil
}

// leader polls for a leader other than the excluded replica.
func (rc *raftCluster) leader(exclude int, timeout time.Duration) (*ctlplane.Node, error) {
	var found *ctlplane.Node
	ok := waitFor(timeout, func() bool {
		for i, n := range rc.nodes {
			if i != exclude && n.IsLeader() {
				found = n
				return true
			}
		}
		return false
	})
	if !ok {
		return nil, fmt.Errorf("no leader within %v", timeout)
	}
	return found, nil
}

func (rc *raftCluster) close() {
	for _, n := range rc.nodes {
		n.Stop()
	}
	for _, t := range rc.transports {
		t.Close()
	}
}

func probeCtlplane(out probeSet) error {
	const tick = 2 * time.Millisecond
	payload := []byte("bench-command-of-plausible-size-0123456789abcdef")

	start := time.Now()
	rc, err := newRaftCluster(3, tick)
	if err != nil {
		return err
	}
	defer rc.close()
	ld, err := rc.leader(-1, 10*time.Second)
	if err != nil {
		return err
	}
	out["ctlplane.election_ms"] = ms(time.Since(start))

	var commits []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if _, err := ld.Propose(payload, 5*time.Second); err != nil {
			return fmt.Errorf("propose %d: %w", i, err)
		}
		commits = append(commits, us(time.Since(t0)))
	}
	sorted := sortedCopy(commits)
	out["ctlplane.commit_p50_us"] = percentile(sorted, 50)
	out["ctlplane.commit_p95_us"] = percentile(sorted, 95)

	const depth, per = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, depth)
	t0 := time.Now()
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := ld.Propose(payload, 5*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("concurrent propose: %w", err)
	default:
	}
	out["ctlplane.commits_per_s_depth8"] = depth * per / time.Since(t0).Seconds()

	t0 = time.Now()
	snap, err := ld.TakeSnapshot(10 * time.Second)
	if err != nil {
		return err
	}
	out["ctlplane.snapshot_us"] = us(time.Since(t0))
	if snap.LastIndex == 0 {
		return fmt.Errorf("snapshot covers no log")
	}

	// Failover outage: proposals go out every 2 ms to whichever replica
	// leads; the outage runs from the old leader's stop to the first
	// proposal that commits afterwards.
	killed := ld.ID()
	stopAt := time.Now()
	ld.Stop()
	next := stopAt
	for {
		if time.Since(stopAt) > 10*time.Second {
			return fmt.Errorf("no proposal committed within 10s of the leader stopping")
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(2 * time.Millisecond)
		var cand *ctlplane.Node
		for i, n := range rc.nodes {
			if i != killed && n.IsLeader() {
				cand = n
			}
		}
		if cand == nil {
			continue
		}
		if _, err := cand.Propose(payload, 100*time.Millisecond); err == nil {
			break
		}
	}
	out["ctlplane.failover_outage_ms"] = ms(time.Since(stopAt))
	return nil
}

func probeController(out probeSet) error {
	const k, n = 16, 8
	t0 := time.Now()
	if _, err := sbnet.New(sbnet.Config{K: k, N: n, Tech: circuit.Crosspoint}); err != nil {
		return err
	}
	out["sbnet.new_ms"] = ms(time.Since(t0))

	sys, err := sharebackup.New(sharebackup.Config{K: k, N: n})
	if err != nil {
		return err
	}
	var nodeUS, linkUS []float64
	at := time.Second
	for pod := 0; pod < k; pod++ {
		// Two node failures and two link failures per pod, on disjoint
		// switches, well apart in virtual time.
		edges, aggs := sys.Network.EdgeGroup(pod).Slots(), sys.Network.AggGroup(pod).Slots()
		for _, id := range []sbnet.SwitchID{edges[0], aggs[0]} {
			at += time.Second
			sys.Controller.Heartbeat(id, at-3*time.Millisecond)
			t0 := time.Now()
			_, err := sys.Controller.RecoverNode(id, at)
			nodeUS = append(nodeUS, us(time.Since(t0)))
			if err != nil {
				return err
			}
		}
		for s := 1; s <= 2; s++ {
			at += time.Second
			lt := linkTargetOf(k, s*k+pod)
			a := sharebackup.EndPoint{Switch: edges[lt.Slot], Port: k/2 + lt.UpPort}
			b := sharebackup.EndPoint{Switch: aggs[lt.AggSlot], Port: lt.Slot}
			t0 := time.Now()
			_, err := sys.Controller.ReportLinkFailure(a, b, at)
			linkUS = append(linkUS, us(time.Since(t0)))
			if err != nil {
				return err
			}
		}
	}
	if err := sys.Network.CheckInvariants(); err != nil {
		return err
	}
	out["controller.recover_node_us"] = median(nodeUS)
	out["controller.recover_link_us"] = median(linkUS)

	nw, err := sbnet.New(sbnet.Config{K: k, N: n, Tech: circuit.Crosspoint})
	if err != nil {
		return err
	}
	var replaceUS []float64
	for pod := 0; pod < k; pod++ {
		for _, id := range nw.EdgeGroup(pod).Slots()[:4] {
			t0 := time.Now()
			_, _, err := nw.Replace(id)
			replaceUS = append(replaceUS, us(time.Since(t0)))
			if err != nil {
				return err
			}
		}
	}
	out["sbnet.replace_us"] = median(replaceUS)

	sw, err := circuit.New("probe", circuit.Crosspoint, k)
	if err != nil {
		return err
	}
	const applies = 20000
	t0 = time.Now()
	for i := 0; i < applies; i++ {
		if _, err := sw.Apply([]circuit.Change{{A: i % k, B: (i + 1) % k}}); err != nil {
			return err
		}
	}
	out["circuit.apply_ns"] = float64(time.Since(t0).Nanoseconds()) / applies

	var tableUS []float64
	for pod := 0; pod < k; pod++ {
		t0 := time.Now()
		if _, err := routing.BuildVLANTable(k, pod); err != nil {
			return err
		}
		tableUS = append(tableUS, us(time.Since(t0)))
	}
	out["routing.vlan_table_build_us"] = median(tableUS)
	return nil
}

// probeCtlnetServer times the wire paths that involve no consensus, against
// a standalone server: link report to recovery event, the circuit-switch
// reconfiguration round trip, and an agent's dial + hello + table preload.
func probeCtlnetServer(out probeSet) error {
	const k, agents = 16, 64
	e, err := ctlnet.NewEmulation(ctlnet.EmulationConfig{K: k, N: 8, NumAgents: agents, NumCS: 1, Interval: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	defer e.Close()
	mon, err := ctlnet.Subscribe(e.Server.Addr())
	if err != nil {
		return err
	}
	defer mon.Close()
	time.Sleep(40 * time.Millisecond)

	var rtt []float64
	for i, a := range e.Agents {
		lt := linkTargetOf(k, i)
		agg := e.Net.AggGroup(lt.Pod).Slots()[lt.AggSlot]
		t0 := time.Now()
		if err := a.ReportLinkFailureDetected(k/2+lt.UpPort, agg, lt.Slot, time.Millisecond); err != nil {
			return err
		}
		select {
		case ev, ok := <-mon.Events:
			if !ok {
				return fmt.Errorf("monitor closed: %v", mon.Err())
			}
			if ev.Kind != "link" || len(ev.Failed) == 0 || ev.Failed[0] != a.ID {
				return fmt.Errorf("unexpected event %+v after agent %d's report", ev, a.ID)
			}
		case <-time.After(2 * time.Second):
			return fmt.Errorf("no recovery event for agent %d's report", a.ID)
		}
		rtt = append(rtt, us(time.Since(t0)))
	}
	out["ctlnet.report_rtt_p50_us"] = median(rtt)

	cs, err := ctlnet.DialCS(e.CS[0].Addr())
	if err != nil {
		return err
	}
	defer cs.Close()
	var csRTT []float64
	for i := 0; i < 300; i++ {
		_, d, err := cs.Reconfigure([]circuit.Change{{A: i % k, B: (i + 1) % k}})
		if err != nil {
			return err
		}
		csRTT = append(csRTT, us(d))
	}
	out["ctlnet.cs_reconfig_rtt_p50_us"] = median(csRTT)

	var dial []float64
	for i := agents; i < agents+16; i++ {
		lt := linkTargetOf(k, i)
		id := e.Net.EdgeGroup(lt.Pod).Slots()[lt.Slot]
		t0 := time.Now()
		a, err := ctlnet.Dial(e.Server.Addr(), id, 20*time.Millisecond)
		if err != nil {
			return err
		}
		ok := a.WaitTable(2 * time.Second)
		dial = append(dial, ms(time.Since(t0)))
		a.Close()
		if !ok {
			return fmt.Errorf("switch %d never received its preloaded table", id)
		}
	}
	out["ctlnet.dial_hello_ms"] = median(dial)
	return nil
}

// probeFleet prices holding the fleet: 128 agents' keep-alives at the live
// workloads' 20 ms interval, once over 128 single connections and once over
// 2 grouped ones. RunFleet's own keep-alives-per-second figure is left out on
// purpose: below saturation it only echoes the offered rate (agents /
// interval), which says nothing about capacity.
func probeFleet(out probeSet) error {
	const agents, window = 128, 500 * time.Millisecond
	interval := defaultLive().Interval
	for _, c := range []struct {
		metric string
		group  int
	}{{"ctlnet.ka_cpu_ns", 1}, {"ctlnet.ka_grouped_cpu_ns", agents / 2}} {
		cpu0 := processCPU()
		t0 := time.Now()
		fr, err := ctlnet.RunFleet(ctlnet.FleetConfig{Agents: agents, GroupSize: c.group, Interval: interval, Warmup: 100 * time.Millisecond, Duration: window, K: 16})
		if err != nil {
			return err
		}
		cpu, wall := processCPU()-cpu0, time.Since(t0)
		if fr.KAs == 0 {
			return fmt.Errorf("fleet of %d (groups of %d): no keep-alives landed", agents, c.group)
		}
		// CPU is taken over the whole call (dial, warm-up, window), so scale
		// the window's keep-alive count to the same span.
		out[c.metric] = float64(cpu.Nanoseconds()) / (float64(fr.KAs) * wall.Seconds() / window.Seconds())
		if c.group == 1 {
			out["ctlnet.ka_delivered_frac"] = float64(fr.KAs) / (agents * window.Seconds() / interval.Seconds())
			out["ctlnet.server_goroutines"] = float64(fr.ServerGoroutines)
		}
	}
	return nil
}

func probeTopoSweep(out probeSet) error {
	ft, err := topo.NewFatTree(topo.Config{K: 16, HostsPerEdge: 1, HostCapacity: 80})
	if err != nil {
		return err
	}
	store := ft.PathStore()
	n := ft.NumHosts()
	for s := 0; s < n; s++ { // warm every pair once
		for d := 0; d < n; d++ {
			if s != d {
				if _, err := store.Paths(s, d); err != nil {
					return err
				}
			}
		}
	}
	const lookups = 1 << 20
	total := 0
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		s, d := i%n, (i*7+1)%n
		if s == d {
			d = (d + 1) % n
		}
		paths, _ := store.Paths(s, d)
		total += len(paths)
	}
	out["topo.pathstore_paths_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups
	if total == 0 {
		return fmt.Errorf("warm PathStore returned no paths")
	}

	const shards = 2048
	t0 = time.Now()
	res, err := sweep.Run(context.Background(), sweep.Config{Name: "bench-noop", Shards: shards, Seed: 1},
		func(_ context.Context, sh sweep.Shard) (int, error) { return sh.Index, nil })
	if err != nil {
		return err
	}
	out["sweep.dispatch_us_per_shard"] = us(time.Since(t0)) / shards
	if len(res) != shards || res[shards-1] != shards-1 {
		return fmt.Errorf("no-op sweep returned %d results", len(res))
	}
	return nil
}
