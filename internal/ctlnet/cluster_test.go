package ctlnet

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

func startCluster(t *testing.T, cfg ClusterConfig) *ClusterEmulation {
	t.Helper()
	e, err := NewClusterEmulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// follower returns a replica that is not ld.
func follower(t *testing.T, e *ClusterEmulation, ld *Replica) *Replica {
	t.Helper()
	for _, r := range e.Replicas {
		if r.ID != ld.ID {
			return r
		}
	}
	t.Fatal("no follower")
	return nil
}

// TestClusterFailoverMidStorm is the headline emulation: a 3-replica
// controller cluster serving four switch agents loses its leader in the
// middle of a failure storm. Every report must still complete — the agents
// chase the new leader through redirects and re-dials, the replicated log
// keeps the replicas' network models identical, and the stitched
// cross-process trace shows the failover hop inside a recovery's span.
func TestClusterFailoverMidStorm(t *testing.T) {
	dir := t.TempDir()
	e := startCluster(t, ClusterConfig{
		EmulationConfig: EmulationConfig{
			NumAgents: 4,
			NumCS:     1,
			TraceDir:  dir,
			// The storm pauses agents' heartbeats while they chase the new
			// leader; node-death detection (tested elsewhere) must not
			// misread that as four switch failures.
			MissThreshold: 25,
		},
		Replicas:  3,
		TickEvery: 5 * time.Millisecond,
	})
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Monitor a follower: it must survive the leader's death, and the
	// replicated log delivers every recovery to it regardless of which
	// replica leads when the recovery commits.
	mon, err := Subscribe(follower(t, e, ld).Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// The leader's consensus replica dies first: commits over loopback take
	// microseconds, so stopping the node before the storm is the only way
	// to guarantee the reports are un-committed when leadership is lost
	// (rather than racing a sleep against the replication round trip).
	// Every report now reaches a server that can no longer commit and must
	// fail over to the next elected leader.
	ld.Node.Stop()

	// The storm: every agent reports its up-link dead, concurrently.
	errs := make([]error, len(e.Agents))
	var wg sync.WaitGroup
	for i := range e.Agents {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.FailLink(i, 500*time.Microsecond)
		}(i)
	}
	// Mid-storm, the rest of the replica dies: its serving socket drops
	// every agent session and its consensus transport goes dark.
	time.Sleep(5 * time.Millisecond)
	ld.Server.Close()
	ld.Transport.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("agent %d report failed across the failover: %v", i, err)
		}
	}
	newLd, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if newLd.ID == ld.ID {
		t.Fatalf("killed replica %d still leads", ld.ID)
	}

	// The monitored follower observes every recovery through its applied
	// log, whichever leader committed it.
	want := len(e.Agents)
	got := 0
	deadline := time.After(15 * time.Second)
	for got < want {
		select {
		case ev, ok := <-mon.Events:
			if !ok {
				t.Fatalf("follower monitor closed after %d/%d events: %v", got, want, mon.Err())
			}
			if ev.Kind != "link" {
				t.Errorf("event kind = %q, want link (failed=%v backup=%v latency=%v)", ev.Kind, ev.Failed, ev.Backup, ev.Latency)
			}
			got++
		case <-deadline:
			t.Fatalf("follower observed %d/%d recoveries within 15s", got, want)
		}
	}

	// The new leader's network model shows all four links recovered:
	// every reporting agent's switch was failed over (non-active role).
	for _, a := range e.Agents {
		if role := newLd.Net.Switch(a.ID).Role; role == sbnet.RoleActive {
			t.Errorf("switch %d still active on the new leader after its link failed", a.ID)
		}
	}

	files := e.TraceFiles()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(mustOpen(t, files[0]))
	if err != nil {
		t.Fatalf("%s: %v", files[0], err)
	}
	procs := []obs.ProcTrace{{Events: evs}}
	res, err := obs.Stitch(procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) < want {
		t.Fatalf("stitched %d traces, want at least %d", len(res.Traces), want)
	}
	// At least one recovery's stitched trace shows the failover hop: the
	// agent re-dialed a replica while its report span was open.
	hops := 0
	for _, tr := range res.Traces {
		if strings.Contains(tr.Render(), "failover ->") {
			hops++
		}
	}
	if hops == 0 {
		var all strings.Builder
		for _, tr := range res.Traces {
			all.WriteString(tr.Render())
		}
		t.Errorf("no stitched trace shows a failover hop:\n%s", all.String())
	}
}

// TestClusterBootstrapElectsWithoutATick: a fresh cluster serves without
// waiting for a tick, so a one-minute tick does not hold up construction.
// Replica 0 campaigns on the tick its node runs as it starts. The directory
// holds the vote request for a peer whose node is not registered yet. Leader
// wakes on the role change. A construction that waited a tick would fail
// on Leader's 10 s.
func TestClusterBootstrapElectsWithoutATick(t *testing.T) {
	e := startCluster(t, ClusterConfig{TickEvery: time.Minute})
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ld.ID != 0 {
		t.Fatalf("replica %d leads, want replica 0", ld.ID)
	}
	guard := time.After(30 * time.Second)
	for _, r := range e.Replicas {
		for {
			changed := r.Node.RoleChanged()
			if r.Node.Term() == 1 && r.Node.LeaderID() == 0 {
				break
			}
			select {
			case <-changed:
			case <-guard:
				t.Fatalf("replica %d is in term %d following %d, want term 1 following replica 0", r.ID, r.Node.Term(), r.Node.LeaderID())
			}
		}
	}
	for _, r := range e.Replicas {
		want := int64(0)
		if r.ID == 0 {
			want = 1
		}
		if got := e.cfg.Registry.Counter(fmt.Sprintf("ctlplane.replica%d.elections_won", r.ID)).Value(); got != want {
			t.Errorf("ctlplane.replica%d.elections_won = %d, want %d", r.ID, got, want)
		}
		if got := e.cfg.Registry.Gauge(fmt.Sprintf("ctlplane.replica%d.is_leader", r.ID)).Value(); got != want {
			t.Errorf("ctlplane.replica%d.is_leader = %d, want %d", r.ID, got, want)
		}
		if got := e.cfg.Registry.Gauge(fmt.Sprintf("ctlplane.replica%d.term", r.ID)).Value(); got != 1 {
			t.Errorf("ctlplane.replica%d.term = %d, want 1", r.ID, got)
		}
	}
}

// sendTo is a Transport that hands every message to a channel.
type sendTo chan ctlplane.Message

func (s sendTo) Send(m ctlplane.Message) { s <- m }

// TestDirectoryHoldsVotesUntilRegistered: a vote request that reaches a
// member before its node is registered is handed to the node at
// registration, not dropped; one addressed to a non-member is dropped.
func TestDirectoryHoldsVotesUntilRegistered(t *testing.T) {
	dir := newClusterDirectory(0, 1)
	dir.deliver(ctlplane.Message{Type: ctlplane.MsgVoteReq, From: 0, To: 1, Term: 1})
	dir.deliver(ctlplane.Message{Type: ctlplane.MsgVoteReq, From: 0, To: 7, Term: 1})
	sent := make(sendTo, 1)
	node := ctlplane.NewNode(ctlplane.NodeConfig{
		Raft:      ctlplane.RaftConfig{ID: 1, Peers: []int{0, 1}},
		TickEvery: time.Minute,
		Transport: sent,
	})
	defer node.Stop()
	dir.register(1, node, "")
	select {
	case m := <-sent:
		if m.Type != ctlplane.MsgVoteResp || m.To != 0 || m.Term != 1 || !m.Granted {
			t.Fatalf("replica 1 sent %+v, want its term-1 vote for replica 0", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the held vote request never reached replica 1")
	}
	if _, ok := dir.held[7]; ok || len(dir.held) != 1 {
		t.Errorf("held = %v, want only member 0's (empty) queue", dir.held)
	}
}

// TestRefusedReportIsFinal: a link report the leader applied and refused —
// its link's two failure groups have no backup left — is final, and comes
// back to the caller at once. Resending it like a lost ack (seven more times
// in two seconds, as the agent once did) charges its circuit switch again
// each time, until §5.1's report threshold halts every recovery in the
// fabric.
func TestRefusedReportIsFinal(t *testing.T) {
	e := startCluster(t, ClusterConfig{EmulationConfig: EmulationConfig{K: 4, N: 1, NumAgents: 5}})
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := Subscribe(ld.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// Agent 0's recovery spends pod 0's one edge backup and one agg backup.
	if err := e.FailLink(0, 0); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, mon); ev.Kind != "link" || len(ev.Failed) != 2 {
		t.Fatalf("first recovery = %+v, want both ends of agent 0's link", ev)
	}
	// Agent 4 is pod 0's second edge switch: both ends of its first up-link
	// sit in the groups just exhausted.
	t0 := time.Now()
	err = e.FailLink(4, 0)
	took := time.Since(t0)
	if err == nil {
		t.Fatal("a report with no backup left on either end succeeded")
	}
	if took > 100*time.Millisecond {
		t.Errorf("the refusal took %v to come back, want under 100ms (%v)", took, err)
	}
	rl, err := ctlplane.DecodeReplayLog(ld.Server.SnapshotState())
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Commands) != 2 {
		t.Errorf("the leader applied %d commands for 2 reports", len(rl.Commands))
	}
	if halts := ld.Ctl.Metrics().Counter("controller.halts").Value(); halts != 0 {
		t.Fatalf("controller.halts = %d: the refused report halted recovery", halts)
	}

	// Recovery elsewhere is unaffected: a node failure in pod 1 recovers.
	victim := e.Agents[1]
	victim.StopHeartbeats()
	if ev := nextEvent(t, mon); ev.Kind != "node" || len(ev.Failed) != 1 || ev.Failed[0] != victim.ID {
		t.Fatalf("recovery after the refusal = %+v, want node failover of %d", ev, victim.ID)
	}
}

// TestClusterQuorumLossDrill loses 2 of 3 replicas. The survivor must halt
// safely — never elect itself, refuse proposals — rather than split-brain,
// and an operator rebootstrap from its snapshot restores the full recovery
// state on a fresh single-replica cluster that resumes service.
func TestClusterQuorumLossDrill(t *testing.T) {
	e := startCluster(t, ClusterConfig{
		EmulationConfig: EmulationConfig{
			NumAgents: 2,
			NumCS:     1,
		},
		Replicas:  3,
		TickEvery: 5 * time.Millisecond,
	})
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	surv := follower(t, e, ld)
	mon, err := Subscribe(surv.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// One recovery while the cluster is healthy, observed on the survivor
	// (so we know its applied state contains it before the others die).
	if err := e.FailLink(0, 500*time.Microsecond); err != nil {
		t.Fatalf("report with healthy cluster: %v", err)
	}
	select {
	case ev, ok := <-mon.Events:
		if !ok {
			t.Fatalf("survivor monitor closed: %v", mon.Err())
		}
		if ev.Kind != "link" {
			t.Errorf("event kind = %q", ev.Kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survivor never observed the healthy-cluster recovery")
	}

	// Snapshot the survivor BEFORE the quorum dies: TakeSnapshot runs a
	// barrier through the consensus loop, which needs a live quorum to
	// guarantee the applied state is current.
	snap, err := surv.Node.TakeSnapshot(5 * time.Second)
	if err != nil {
		t.Fatalf("survivor snapshot: %v", err)
	}
	if snap.LastIndex == 0 {
		t.Fatal("survivor snapshot has no applied state")
	}

	// Quorum loss: the leader and the other follower die.
	for _, r := range e.Replicas {
		if r.ID != surv.ID {
			r.Kill()
		}
	}

	// Safe halt: across many election timeouts the survivor never wins an
	// election (no quorum to grant it), and proposals fail instead of
	// being accepted by a minority.
	haltDeadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(haltDeadline) {
		if surv.Node.IsLeader() {
			t.Fatal("split-brain: survivor led without a quorum")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := surv.Node.Propose([]byte("x"), 300*time.Millisecond); err == nil {
		t.Fatal("survivor accepted a proposal without a quorum")
	}

	// Operator rebootstrap: a fresh single-replica cluster seeded from the
	// survivor's snapshot replays the recovery log into a fresh network
	// model and resumes serving recoveries.
	nw2, err := sbnet.New(sbnet.Config{K: e.cfg.K, N: e.cfg.N, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	ctl2 := controller.New(nw2, controller.Config{ProbeInterval: e.cfg.Interval})
	dir2 := newClusterDirectory()
	srv2, err := NewServer("127.0.0.1:0", ctl2, ServerConfig{
		Interval: e.cfg.Interval,
		Cluster:  &clusterHooks{dir: dir2, self: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	node9 := ctlplane.NewNode(ctlplane.NodeConfig{
		Raft:      ctlplane.RaftConfig{ID: 9, Peers: []int{9}, Seed: 55, Restore: &snap},
		TickEvery: 5 * time.Millisecond,
		Apply:     func(data []byte) (any, error) { return srv2.ApplyCommand(data) },
		Snapshot:  srv2.SnapshotState,
		Restore:   srv2.RestoreState,
	})
	defer node9.Stop()
	dir2.register(9, node9, srv2.Addr())

	// The restore replayed the survivor's applied log: the rebooted network
	// model agrees with the survivor's, switch by switch.
	for id := 0; id < nw2.NumSwitches(); id++ {
		sid := sbnet.SwitchID(id)
		if got, want := nw2.Switch(sid).Role, surv.Net.Switch(sid).Role; got != want {
			t.Errorf("switch %d role after rebootstrap = %v, survivor has %v", id, got, want)
		}
	}

	// The single-replica cluster leads itself and serves a new recovery
	// end to end: agent dial, leader discovery, report, ack, publish.
	if _, err := ctlplane.WaitLeader([]*ctlplane.Node{node9}, 5*time.Second); err != nil {
		t.Fatalf("rebootstrapped replica never led its single-node cluster: %v", err)
	}
	mon2, err := Subscribe(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	ids := agentSwitchIDs(nw2, e.cfg.K, 2)
	a, err := DialCluster([]string{srv2.Addr()}, ids[1], e.cfg.Interval)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ownPort, agg, aggPort := firstUpLink(nw2, ids[1], e.cfg.K)
	if err := a.ReportLinkFailureDetected(ownPort, agg, aggPort, 500*time.Microsecond); err != nil {
		t.Fatalf("report after rebootstrap: %v", err)
	}
	select {
	case ev, ok := <-mon2.Events:
		if !ok {
			t.Fatalf("rebooted monitor closed: %v", mon2.Err())
		}
		if ev.Kind != "link" {
			t.Errorf("post-rebootstrap event kind = %q", ev.Kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rebootstrapped cluster served no recovery within 10s")
	}
}

// TestClusterRedirectsToLeader checks the discovery protocol directly: a
// follower answers msgLeaderReq with the leader's serving address and
// redirects keep-alive traffic instead of consuming it.
func TestClusterLeaderInfoRoundTrip(t *testing.T) {
	isLeader, addr, err := decodeLeaderInfo(encodeLeaderInfo(true, "127.0.0.1:4242"))
	if err != nil || !isLeader || addr != "127.0.0.1:4242" {
		t.Fatalf("leaderInfo round trip = %v %q %v", isLeader, addr, err)
	}
	isLeader, addr, err = decodeLeaderInfo(encodeLeaderInfo(false, ""))
	if err != nil || isLeader || addr != "" {
		t.Fatalf("empty leaderInfo round trip = %v %q %v", isLeader, addr, err)
	}
	if _, _, err := decodeLeaderInfo(nil); err == nil {
		t.Error("empty leaderInfo payload accepted")
	}
	status, err := decodeReportAck(encodeReportAck(reportAckOK))
	if err != nil || status != reportAckOK {
		t.Fatalf("reportAck round trip = %v %v", status, err)
	}
	if _, err := decodeReportAck([]byte{1, 2}); err == nil {
		t.Error("oversized reportAck accepted")
	}
}

// TestStormCommitsOneEntryPerRecovery silences half of a 128-agent fleet at
// one instant on a 3-replica cluster. However the storm's concurrent
// proposals interleave, the replicated log must hold exactly one
// CmdRecoverNode per silenced switch and nothing else, identically on every
// replica, and no backup may be handed out twice.
func TestStormCommitsOneEntryPerRecovery(t *testing.T) {
	const silencedN = 64
	e := startCluster(t, ClusterConfig{
		EmulationConfig: EmulationConfig{
			K: 16, N: 8, NumAgents: 128, NumCS: 1,
			Interval: 20 * time.Millisecond, MissThreshold: 3,
		},
		Replicas: 3,
	})
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := Subscribe(ld.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	time.Sleep(5 * e.cfg.Interval)

	silenced := make(map[sbnet.SwitchID]bool)
	for _, a := range e.Agents[:silencedN] {
		a.StopHeartbeats()
		silenced[a.ID] = true
	}
	recovered := make(map[sbnet.SwitchID]bool)
	backups := make(map[sbnet.SwitchID]bool)
	for len(recovered) < silencedN {
		ev := nextEvent(t, mon)
		if ev.Kind != "node" || len(ev.Failed) != 1 || len(ev.Backup) != 1 {
			t.Fatalf("storm event is not one node recovery: %+v", ev)
		}
		if !silenced[ev.Failed[0]] || recovered[ev.Failed[0]] {
			t.Fatalf("recovery of switch %d, which is live or already recovered", ev.Failed[0])
		}
		if backups[ev.Backup[0]] {
			t.Fatalf("backup %d assigned to two positions", ev.Backup[0])
		}
		recovered[ev.Failed[0]] = true
		backups[ev.Backup[0]] = true
	}

	// Followers apply behind the leader: wait for every replica's history,
	// then hold them to the leader's, byte for byte.
	entries := func(r *Replica) [][]byte {
		rl, err := ctlplane.DecodeReplayLog(r.Server.SnapshotState())
		if err != nil {
			t.Fatal(err)
		}
		return rl.Commands
	}
	for _, r := range e.Replicas {
		if !waitUntil(5*time.Second, func() bool { return len(entries(r)) >= silencedN }) {
			t.Fatalf("replica %d applied %d entries, want %d", r.ID, len(entries(r)), silencedN)
		}
	}
	time.Sleep(4 * e.cfg.Interval) // one more deadline: nothing else may commit
	want := ld.Server.SnapshotState()
	for _, r := range e.Replicas {
		if got := r.Server.SnapshotState(); !bytes.Equal(got, want) {
			t.Errorf("replica %d's replay log differs from the leader's", r.ID)
		}
	}
	log := entries(ld)
	if len(log) != silencedN {
		t.Fatalf("%d log entries for %d recoveries, want one each", len(log), silencedN)
	}
	seen := make(map[sbnet.SwitchID]bool)
	for i, data := range log {
		cmd, err := ctlplane.DecodeCommand(data)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		id := sbnet.SwitchID(cmd.Switch)
		if cmd.Kind != ctlplane.CmdRecoverNode || !silenced[id] || seen[id] {
			t.Fatalf("entry %d is not the one CmdRecoverNode of a silenced switch: %s", i, data)
		}
		seen[id] = true
	}
}

// TestRestoreRejectsRetiredBatchEntry: a snapshot written when kind 3 folded
// sub-commands into one entry must fail the restore loudly, not be skipped —
// a replica that skipped it would diverge from the replicas that applied it.
func TestRestoreRejectsRetiredBatchEntry(t *testing.T) {
	srv, nw, _ := detectorServer(t, 1, 5*time.Millisecond)
	node := ctlplane.Command{Kind: ctlplane.CmdRecoverNode, Switch: int32(agentSwitchIDs(nw, 4, 1)[0]), LastSeenNS: 1e6, AtNS: 2e6}.Encode()
	batch := []byte(`{"kind":3,"at_ns":0,"sub":["` + base64.StdEncoding.EncodeToString(node) + `"]}`)
	if err := srv.RestoreState(ctlplane.EncodeReplayLog([][]byte{node, batch})); err == nil {
		t.Fatal("RestoreState accepted a kind-3 entry")
	}
	rl, err := ctlplane.DecodeReplayLog(srv.SnapshotState())
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Commands) != 1 || !bytes.Equal(rl.Commands[0], node) {
		t.Errorf("history after the failed restore = %q, want the one entry before the kind-3 one", rl.Commands)
	}
}

// TestLinkRecoveryRecordsMeasuredDetection: every replica applies a live
// link report with the detection the reporting agent measured, not the
// keep-alive interval.
func TestLinkRecoveryRecordsMeasuredDetection(t *testing.T) {
	const measured = 700 * time.Microsecond
	e := startCluster(t, ClusterConfig{EmulationConfig: EmulationConfig{NumAgents: 2}, Replicas: 3})
	if _, err := e.Leader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.FailLink(0, measured); err != nil {
		t.Fatal(err)
	}
	lastDetection := func(r *Replica) time.Duration {
		r.Server.state.mu.Lock()
		defer r.Server.state.mu.Unlock()
		recs := r.Ctl.Recoveries()
		if len(recs) == 0 {
			return -1
		}
		return recs[len(recs)-1].Detection
	}
	for _, r := range e.Replicas {
		if !waitUntil(5*time.Second, func() bool { return lastDetection(r) >= 0 }) {
			t.Fatalf("replica %d applied no recovery", r.ID)
		}
		if got := lastDetection(r); got != measured {
			t.Errorf("replica %d recorded detection %v, want the agent's %v", r.ID, got, measured)
		}
	}
}

// TestOneRecoveryCompletePerLiveRecovery: a replicated controller completes a
// recovery once, on its leader, however many replicas apply it. Three
// replicas apply N link recoveries; the trace every process bus writes holds
// exactly N recovery-complete events, the leader's wall-clock ones.
func TestOneRecoveryCompletePerLiveRecovery(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	e := startCluster(t, ClusterConfig{
		EmulationConfig: EmulationConfig{NumAgents: n, NumCS: 1, TraceDir: dir, MissThreshold: 25},
		Replicas:        3,
	})
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Every replica publishes every applied recovery to its subscribers:
	// once each monitor has seen n, every replica has applied all n.
	var mons []*Monitor
	for _, r := range e.Replicas {
		mon, err := Subscribe(r.Server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		mons = append(mons, mon)
	}
	for i := 0; i < n; i++ {
		if err := e.FailLink(i, 500*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	published := make([]int, len(mons))
	for i, mon := range mons {
		for published[i] < n {
			select {
			case _, ok := <-mon.Events:
				if !ok {
					t.Fatalf("replica %d's monitor closed after %d of %d recoveries (%v); %s",
						e.Replicas[i].ID, published[i], n, mon.Err(), clusterState(e, mons, published))
				}
				published[i]++
			case <-time.After(5 * time.Second):
				t.Fatalf("replica %d published %d of %d recoveries; %s",
					e.Replicas[i].ID, published[i], n, clusterState(e, mons, published))
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(mustOpen(t, e.TraceFiles()[0]))
	if err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, ev := range evs {
		if ev.Kind != obs.KindRecoveryComplete {
			continue
		}
		complete++
		if want := fmt.Sprintf("controller-%d", ld.ID); ev.Proc != want || !ev.Wall {
			t.Errorf("recovery-complete on %q (wall %v), want the leader's %q wall-clock event", ev.Proc, ev.Wall, want)
		}
	}
	if complete != n {
		t.Errorf("trace holds %d recovery-complete events for %d recoveries, want %d", complete, n, n)
	}
}

// clusterState describes every replica for a failure message: its
// ctlplane.replica%d gauges (term, leader flag, commit index), the
// recoveries it applied, and how many its monitor published (drained
// without blocking into published).
func clusterState(e *ClusterEmulation, mons []*Monitor, published []int) string {
	var b strings.Builder
	for i, r := range e.Replicas {
		for drained := false; !drained; {
			select {
			case _, ok := <-mons[i].Events:
				if ok {
					published[i]++
				} else {
					drained = true
				}
			default:
				drained = true
			}
		}
		r.Server.state.mu.Lock()
		applied := len(r.Ctl.Recoveries())
		r.Server.state.mu.Unlock()
		gauge := func(name string) int64 {
			return e.cfg.Registry.Gauge(fmt.Sprintf("ctlplane.replica%d.%s", r.ID, name)).Value()
		}
		fmt.Fprintf(&b, "replica %d: term %d, leader %d, commit %d, applied %d, published %d; ",
			r.ID, gauge("term"), gauge("is_leader"), gauge("commit_index"), applied, published[i])
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// TestClusterRecordsAndTracesEachRecoveryOnce: three replicas apply a node
// recovery, a link recovery and a refused link report. Every replica records
// the same recoveries, field for field: the records hold nothing a replica
// draws for itself, such as a trace ID. The leader alone traces them: the
// node recovery stitches to one trace, every recovery's trace holds one
// controller span and that span completes, and the refusal leaves one
// failure-declared event, the leader's.
func TestClusterRecordsAndTracesEachRecoveryOnce(t *testing.T) {
	e := startCluster(t, ClusterConfig{
		// A 50 ms deadline: no live agent is declared dead on a busy host.
		EmulationConfig: EmulationConfig{K: 4, N: 1, NumAgents: 5, NumCS: 1, TraceDir: t.TempDir(), MissThreshold: 10},
		Replicas:        3,
	})
	ld, err := e.Leader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := Subscribe(ld.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	// Agent 0's link recovery spends pod 0's edge and agg backups, so agent
	// 4's (pod 0's second edge switch) is refused. Agent 1 is in pod 1.
	if err := e.FailLink(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.FailLink(4, 0); err == nil {
		t.Fatal("a report with no backup left on either end succeeded")
	}
	node := e.Agents[1]
	node.StopHeartbeats()
	for kinds := ""; kinds != "link node "; {
		kinds += nextEvent(t, mon).Kind + " "
	}
	recoveries := func(r *Replica) []controller.Recovery {
		r.Server.state.mu.Lock()
		defer r.Server.state.mu.Unlock()
		return slices.Clone(r.Ctl.Recoveries())
	}
	want := recoveries(ld)
	for _, r := range e.Replicas {
		if !waitUntil(5*time.Second, func() bool { return len(recoveries(r)) == len(want) }) {
			t.Fatalf("replica %d applied %d recoveries, the leader %d", r.ID, len(recoveries(r)), len(want))
		}
		if got := recoveries(r); !reflect.DeepEqual(got, want) {
			t.Errorf("replica %d records %+v, the leader %+v", r.ID, got, want)
		}
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(mustOpen(t, e.TraceFiles()[0]))
	if err != nil {
		t.Fatal(err)
	}
	leader := fmt.Sprintf("controller-%d", ld.ID)
	refused := e.Agents[4].ID
	for _, ev := range evs {
		if strings.HasPrefix(ev.Proc, "controller-") && ev.Kind == obs.KindFailureDeclared &&
			ev.Switch == int32(refused) && ev.Proc != leader {
			t.Errorf("%s declared the refused failure of switch %d; only the leader %s traces", ev.Proc, refused, leader)
		}
	}
	res, err := obs.Stitch([]obs.ProcTrace{{Events: evs}})
	if err != nil {
		t.Fatal(err)
	}
	nodeTraces, recovered, refusals := 0, 0, 0
	for _, tr := range res.Traces {
		var ctl []*obs.StitchedSpan
		complete := false
		for _, ss := range tr.Spans {
			if strings.HasPrefix(ss.Proc, "controller-") {
				ctl = append(ctl, ss)
			}
			complete = complete || ss.Span.Complete
			for _, ev := range ss.Span.Events {
				if ev.Kind == obs.KindFailureDeclared && ev.Detail == "node" && ev.Switch == int32(node.ID) {
					nodeTraces++
				}
				if ev.Kind == obs.KindFailureDeclared && ev.Switch == int32(refused) && ss.Proc == leader {
					refusals++
				}
			}
		}
		if !complete {
			continue
		}
		recovered++
		if len(ctl) != 1 || !ctl[0].Span.Complete || ctl[0].Proc != leader {
			t.Errorf("a recovery's trace holds %d controller spans, want one, the leader's, completing it:\n%s", len(ctl), tr.Render())
		}
	}
	if nodeTraces != 1 || recovered != 2 || refusals != 1 {
		t.Errorf("the node recovery stitched to %d traces, %d traces complete a recovery and the leader declared the refused failure %d times; want 1, 2 and 1", nodeTraces, recovered, refusals)
	}
}

// fakeLeader serves the leader's side of the agent protocol on loopback: it
// claims to lead, reads hellos and keep-alives, and hands each link report to
// onReport with its listener and connection.
func fakeLeader(t *testing.T, onReport func(net.Listener, net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					typ, _, err := readFrame(c)
					if err != nil {
						return
					}
					switch typ {
					case msgLeaderReq:
						writeFrame(c, msgLeaderInfo, encodeLeaderInfo(true, ln.Addr().String()))
					case msgLinkFail:
						onReport(ln, c)
					}
				}
			}()
		}
	}()
	return ln
}

// TestClusterReportResendsWhenItsLeaderDies: a leader dies holding a link
// report it never acked. The agent's session to it drops, and the report is
// resent to the next leader at once, not after the ack timeout
// (proposeTimeout, 2 s) that a report loop nobody told of the drop waits out.
func TestClusterReportResendsWhenItsLeaderDies(t *testing.T) {
	dying := fakeLeader(t, func(ln net.Listener, c net.Conn) {
		ln.Close()
		c.Close()
	})
	next := fakeLeader(t, func(_ net.Listener, c net.Conn) { writeFrame(c, msgReportAck, encodeReportAck(reportAckOK)) })
	a, err := DialCluster([]string{dying.Addr().String(), next.Addr().String()}, 0, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	t0 := time.Now()
	if err := a.ReportLinkFailureDetected(2, 4, 0, 0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > proposeTimeout/4 {
		t.Errorf("the report took %v to reach the next leader, want well under the %v ack timeout", took, proposeTimeout)
	}
}
