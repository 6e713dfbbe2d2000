//go:build goexperiment.synctest

// The control plane in testing/synctest bubbles, over tcpserve's in-memory
// network, on fake time: a deadline is asserted to the nanosecond, and the
// seconds a wall-clock test spends waiting take microseconds. These tests
// build only with GOEXPERIMENT=synctest (make bubble). A bubble needs three
// things:
//
//   - go.mod says go 1.22, whose default asynctimerchan=1 makes synctest.Run
//     panic ("not supported with asynctimerchan!=0"). The go:debug line below
//     sets it for this test binary alone; raising go.mod's go line would
//     change timer semantics for the programs too.
//   - Run returns only once every goroutine started in the bubble has
//     exited, so each test closes its replicas, agents, monitors and
//     listeners inside the bubble (deferred there), never in t.Cleanup.
//   - A real socket never counts as durably blocked, so one TCP connection
//     left inside a bubble stops fake time from advancing: everything here
//     listens on "mem:0" (listenAddr).

//go:debug asynctimerchan=0

package ctlnet

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/tcpserve"
)

// inBubble runs f in a synctest bubble with every listener this package
// starts on the in-memory network, and logs the real time it took.
func inBubble(t *testing.T, f func()) {
	t.Helper()
	defer func(addr string) { listenAddr = addr }(listenAddr)
	listenAddr = "mem:0"
	start := time.Now()
	synctest.Run(f)
	t.Logf("%v of real time", time.Since(start))
}

// bubbleReplica is soloReplica for a bubble: the caller kills it there.
func bubbleReplica(t *testing.T, k, n int, cfg ServerConfig) (*Replica, *obs.Registry) {
	t.Helper()
	nw, err := sbnet.New(sbnet.Config{K: k, N: n, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl := controller.New(nw, controller.Config{ProbeInterval: cfg.Interval, Metrics: reg})
	rs, err := startReplicas([]*controller.Controller{ctl}, []ServerConfig{cfg}, 0, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0], reg
}

// TestBubblePublishGivesUpAtReplyWriteTimeout is
// TestPublishDropsStalledSubscriber on fake time: publish gives up on a
// subscriber that never reads at exactly replyWriteTimeout, and drops it.
func TestBubblePublishGivesUpAtReplyWriteTimeout(t *testing.T) {
	inBubble(t, func() {
		r, _ := bubbleReplica(t, 4, 1, ServerConfig{Obs: &obs.Bus{}})
		defer r.Kill()
		srv := r.Server
		stalled, peer := net.Pipe() // nobody reads peer
		defer peer.Close()
		srv.mu.Lock()
		srv.subs = append(srv.subs, stalled)
		srv.mu.Unlock()
		t0 := time.Now()
		srv.publish(RecoveryEvent{Kind: "node", Failed: []sbnet.SwitchID{1}, Backup: []sbnet.SwitchID{2}})
		if took := time.Since(t0); took != replyWriteTimeout {
			t.Errorf("publish gave up after %v, want replyWriteTimeout (%v)", took, replyWriteTimeout)
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.subs) != 0 {
			t.Errorf("%d subscribers left after a failed write, want 0", len(srv.subs))
		}
	})
}

// TestBubbleMirrorCSGivesUpAtReplyWriteTimeout is
// TestMirrorCSGivesUpOnSilentService on fake time: a circuit switch that
// accepted the session and never answers costs the mirror exactly
// replyWriteTimeout, logged once, and the next mirror redials a session that
// answers at once.
func TestBubbleMirrorCSGivesUpAtReplyWriteTimeout(t *testing.T) {
	inBubble(t, func() {
		ln, err := tcpserve.Listen("mem:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		var served sync.WaitGroup
		defer served.Wait()
		go func() {
			for first := true; ; first = false {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				if first {
					defer c.Close() // held, never read, never answered
					continue
				}
				served.Add(1)
				go func() {
					defer served.Done()
					defer c.Close()
					for {
						if _, _, err := readFrame(c); err != nil {
							return
						}
						if err := writeFrame(c, msgCSAck, encodeCSAck(time.Microsecond)); err != nil {
							return
						}
					}
				}()
			}
		}()
		bus := &obs.Bus{}
		ring := obs.NewRing(64)
		bus.Attach(ring)
		r, _ := bubbleReplica(t, 4, 1, ServerConfig{Obs: bus, CSAddrs: []string{ln.Addr().String()}})
		defer r.Kill()
		for round, want := range []time.Duration{replyWriteTimeout, 0} {
			t0 := time.Now()
			r.Server.mirrorCS(obs.TraceContext{})
			if took := time.Since(t0); took != want {
				t.Errorf("mirror %d took %v, want %v", round, took, want)
			}
		}
		logged := 0
		for _, ev := range ring.Events() {
			if ev.Kind == obs.KindLog && strings.Contains(ev.Detail, "cs mirror") {
				logged++
			}
		}
		if logged != 1 {
			t.Errorf("%d failed mirrors logged, want 1", logged)
		}
	})
}

// TestBubbleDialWaitsForASlowLeader is TestDialWaitsForASlowLeader on fake
// time: a leader that answers in 700 ms misses the first round's
// leaderReplyTimeout and admits the agent on the second round, after the
// 50 ms pause between rounds: at exactly 500 + 50 + 700 ms.
func TestBubbleDialWaitsForASlowLeader(t *testing.T) {
	inBubble(t, func() {
		ln, err := tcpserve.Listen("mem:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		defer wg.Wait()
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer c.Close()
					if typ, _, err := readFrame(c); err != nil || typ != msgLeaderReq {
						return
					}
					time.Sleep(700 * time.Millisecond)
					if writeFrame(c, msgLeaderInfo, encodeLeaderInfo(true, ln.Addr().String())) == nil {
						io.Copy(io.Discard, c) // hellos and keep-alives
					}
				}()
			}
		}()
		t0 := time.Now()
		a, err := DialCluster([]string{ln.Addr().String()}, 0, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("a leader answering in 700 ms was never found: %v", err)
		}
		defer a.Close()
		if took, want := time.Since(t0), leaderReplyTimeout+750*time.Millisecond; took != want {
			t.Errorf("admitted after %v, want %v (second round)", took, want)
		}
	})
}

// TestBubbleStalledPeersCostOthersNothing is TestStalledPeerDoesNotSilenceOthers
// on fake time: two peers flood leader queries and never read the answers,
// so the server's readers for them block in writeReply until they are
// dropped. Over the same 3 s, sixteen agents keep-aliving every 20 ms land
// every one of their 150 keep-alives each, and none is declared dead.
func TestBubbleStalledPeersCostOthersNothing(t *testing.T) {
	const interval = 20 * time.Millisecond
	inBubble(t, func() {
		r, reg := bubbleReplica(t, 8, 4, ServerConfig{Interval: interval, MissThreshold: 3, Obs: &obs.Bus{}})
		defer r.Kill()
		srv := r.Server
		for _, id := range agentSwitchIDs(srv.state.ctl.Network(), 8, 16) {
			a, err := Dial(srv.Addr(), id, interval)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
		}
		var flood []byte
		for len(flood) < 64<<10 {
			flood = appendFrame(flood, msgLeaderReq, nil)
		}
		var wg sync.WaitGroup
		defer wg.Wait()
		for i := 0; i < 2; i++ {
			conn, err := tcpserve.Dial(srv.Addr(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := conn.Write(flood); err != nil {
						return // dropped by the server
					}
				}
			}()
		}
		ka := reg.Counter("ctlnet.keepalives")
		before := ka.Value()
		time.Sleep(3 * time.Second)
		synctest.Wait()
		if got := reg.Histogram("ctlnet.detect_overshoot_ns").Count(); got != 0 {
			t.Errorf("%d of 16 live, keep-aliving switches declared dead next to two stalled peers", got)
		}
		if got, want := ka.Value()-before, int64(16*150); got != want {
			t.Errorf("%d keep-alives landed in 3 s next to two stalled peers, want %d", got, want)
		}
	})
}

// TestBubbleDetectionLandsOnItsDeadline: a silenced agent is declared dead at
// exactly MissThreshold × Interval after its last keep-alive (overshoot 0),
// and the recovery reaches a monitor at that same instant.
func TestBubbleDetectionLandsOnItsDeadline(t *testing.T) {
	const interval, misses = 20 * time.Millisecond, 3
	inBubble(t, func() {
		r, reg := bubbleReplica(t, 4, 1, ServerConfig{Interval: interval, MissThreshold: misses, Obs: &obs.Bus{}})
		defer r.Kill()
		srv := r.Server
		mon, err := Subscribe(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		var agents []*Agent
		for _, id := range srv.state.ctl.Network().EdgeGroup(0).Slots() {
			a, err := Dial(srv.Addr(), id, interval)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			agents = append(agents, a)
		}
		// Stop the victim on one of its ticks, once the keep-alive it sent
		// then has landed.
		time.Sleep(5 * interval)
		synctest.Wait()
		victim := agents[0]
		victim.StopHeartbeats()
		last := time.Now()
		ev, ok := <-mon.Events
		if !ok {
			t.Fatalf("monitor closed: %v", mon.Err())
		}
		if took := time.Since(last); took != misses*interval {
			t.Errorf("recovery published %v after the last keep-alive, want %v", took, misses*interval)
		}
		if ev.Kind != "node" || len(ev.Failed) != 1 || ev.Failed[0] != victim.ID {
			t.Errorf("recovery = %+v, want node %d", ev, victim.ID)
		}
		over := reg.Histogram("ctlnet.detect_overshoot_ns")
		if over.Count() != 1 || over.Max() != 0 {
			t.Errorf("detect_overshoot_ns: count %d, max %d ns; want 1 declaration on its deadline", over.Count(), over.Max())
		}
	})
}

// leaderKillDrill builds a 3-replica cluster with four agents keep-aliving
// every 20 ms, kills its leader, waits for a successor, silences one agent
// and waits for the successor's recovery of it, which must land within one
// 60 ms deadline of the silence. It returns the successor's ID and the fake
// time the election and the recovery took.
func leaderKillDrill(t *testing.T, seed uint64) (successor int, election, recovery time.Duration) {
	t.Helper()
	const interval, misses = 20 * time.Millisecond, 3
	e, err := NewClusterEmulation(ClusterConfig{
		EmulationConfig: EmulationConfig{NumAgents: 4, NumCS: 1, Interval: interval, MissThreshold: misses},
		Replicas:        3,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	t0 := time.Now()
	dead, err := e.KillLeader(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatalf("no successor: %v", err)
	}
	election = time.Since(t0)
	if ld.ID == dead.ID {
		t.Fatalf("killed replica %d still leads", dead.ID)
	}
	mon, err := Subscribe(ld.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	// The agents have chased the successor once every one of them is on its
	// detector.
	entries := ld.Ctl.Metrics().Gauge("ctlnet.detector_entries")
	if !waitUntil(10*time.Second, func() bool { return entries.Value() == int64(len(e.Agents)) }) {
		t.Fatalf("%d of %d agents on the successor's detector after 10 s", entries.Value(), len(e.Agents))
	}
	victim := e.Agents[0]
	victim.StopHeartbeats()
	t1 := time.Now()
	select {
	case ev, ok := <-mon.Events:
		if !ok || ev.Kind != "node" || len(ev.Failed) != 1 || ev.Failed[0] != victim.ID {
			t.Fatalf("recovery = %+v (monitor open %v), want node %d", ev, ok, victim.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no recovery of the silenced agent within 10 s")
	}
	if recovery = time.Since(t1); recovery > misses*interval {
		t.Errorf("recovery published %v after the silence, past its %v deadline", recovery, misses*interval)
	}
	return ld.ID, election, recovery
}

// TestBubbleLeaderKillDrill: a whole cluster's failover, built, re-elected
// and recovering a node in milliseconds of real time.
func TestBubbleLeaderKillDrill(t *testing.T) {
	inBubble(t, func() {
		successor, election, recovery := leaderKillDrill(t, 1)
		t.Logf("replica %d elected %v after the kill; a silenced agent recovered %v after it went quiet", successor, election, recovery)
	})
}

// TestBubbleSeedSweep replays the leader-kill drill over ClusterConfig.Seed
// 1–100: whatever election timeouts a seed draws, a successor is elected and
// recovers a silenced agent.
func TestBubbleSeedSweep(t *testing.T) {
	var minE, maxE, minR, maxR time.Duration
	successors := map[int]int{}
	defer func(addr string) { listenAddr = addr }(listenAddr)
	listenAddr = "mem:0"
	for seed := uint64(1); seed <= 100; seed++ {
		ok := t.Run(fmt.Sprint(seed), func(t *testing.T) {
			synctest.Run(func() {
				successor, election, recovery := leaderKillDrill(t, seed)
				successors[successor]++
				if seed == 1 {
					minE, minR = election, recovery
				}
				minE, maxE = min(minE, election), max(maxE, election)
				minR, maxR = min(minR, recovery), max(maxR, recovery)
			})
		})
		if !ok {
			return
		}
	}
	t.Logf("on fake time: elections of %v–%v, recoveries %v–%v after the silence; successors %v", minE, maxE, minR, maxR, successors)
}
