package ctlplane

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// liveCluster wires N Nodes over loopback TCP transports, each applying
// committed commands into a per-replica ordered list.
type liveCluster struct {
	nodes      []*Node
	transports []*TCPTransport

	mu      sync.Mutex
	applied [][]string
}

func newLiveCluster(t *testing.T, n int) *liveCluster {
	t.Helper()
	lc := &liveCluster{applied: make([][]string, n)}
	peers := make([]int, n)
	addrs := make(map[int]string, n)
	// Bind listeners first so every transport knows every address.
	transports := make([]*TCPTransport, n)
	var inboxMu sync.Mutex
	inboxes := make([]func(Message), n)
	deliver := func(m Message) {
		inboxMu.Lock()
		f := inboxes[m.To]
		inboxMu.Unlock()
		if f != nil {
			f(m)
		}
	}
	for i := 0; i < n; i++ {
		peers[i] = i
		i := i
		addrs[i] = "127.0.0.1:0"
		tr, err := NewTCPTransport(i, map[int]string{i: "127.0.0.1:0"}, deliver)
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		transports[i] = tr
		addrs[i] = tr.Addr()
	}
	// Transports were built with only their own address; now that every
	// listener is bound, hand each the full peer map.
	for i := 0; i < n; i++ {
		transports[i].SetPeers(addrs)
	}
	lc.transports = transports
	for i := 0; i < n; i++ {
		i := i
		node := NewNode(NodeConfig{
			Raft:      RaftConfig{ID: i, Peers: peers, Seed: uint64(i) + 101},
			TickEvery: 5 * time.Millisecond,
			Transport: transports[i],
			Apply: func(data []byte) (any, error) {
				lc.mu.Lock()
				lc.applied[i] = append(lc.applied[i], string(data))
				n := len(lc.applied[i])
				lc.mu.Unlock()
				return n, nil
			},
			Snapshot: func() []byte {
				lc.mu.Lock()
				defer lc.mu.Unlock()
				cmds := make([][]byte, len(lc.applied[i]))
				for j, s := range lc.applied[i] {
					cmds[j] = []byte(s)
				}
				return EncodeReplayLog(cmds)
			},
			Restore: func(data []byte) error {
				rl, err := DecodeReplayLog(data)
				if err != nil {
					return err
				}
				lc.mu.Lock()
				defer lc.mu.Unlock()
				for j := len(lc.applied[i]); j < len(rl.Commands); j++ {
					lc.applied[i] = append(lc.applied[i], string(rl.Commands[j]))
				}
				return nil
			},
		})
		lc.nodes = append(lc.nodes, node)
		inboxMu.Lock()
		inboxes[i] = node.Deliver
		inboxMu.Unlock()
	}
	t.Cleanup(func() {
		for _, n := range lc.nodes {
			n.Stop()
		}
		for _, tr := range lc.transports {
			tr.Close()
		}
	})
	return lc
}

func (lc *liveCluster) waitLeader(t *testing.T, exclude int, timeout time.Duration) *Node {
	t.Helper()
	var nodes []*Node
	for _, n := range lc.nodes {
		if n.ID() != exclude {
			nodes = append(nodes, n)
		}
	}
	ld, err := WaitLeader(nodes, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

func (lc *liveCluster) appliedOn(id int) []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]string(nil), lc.applied[id]...)
}

func TestLiveClusterReplicatesProposals(t *testing.T) {
	lc := newLiveCluster(t, 3)
	ld := lc.waitLeader(t, -1, 5*time.Second)
	for i := 0; i < 4; i++ {
		res, err := ld.Propose([]byte(fmt.Sprintf("op-%d", i)), 2*time.Second)
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if got := res.(int); got != i+1 {
			t.Fatalf("propose %d apply result = %d, want %d", i, got, i+1)
		}
	}
	// Followers converge within a few heartbeats.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for id := range lc.nodes {
			if len(lc.appliedOn(id)) != 4 {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for id := range lc.nodes {
		got := lc.appliedOn(id)
		if len(got) != 4 || got[0] != "op-0" || got[3] != "op-3" {
			t.Fatalf("replica %d applied %v", id, got)
		}
	}
}

func TestLiveClusterFailsOverOnLeaderDeath(t *testing.T) {
	lc := newLiveCluster(t, 3)
	ld := lc.waitLeader(t, -1, 5*time.Second)
	if _, err := ld.Propose([]byte("before"), 2*time.Second); err != nil {
		t.Fatalf("propose before kill: %v", err)
	}
	// Kill the leader: stop its consensus loop and sever its transport.
	ld.Stop()
	lc.transports[ld.ID()].Close()

	newLd := lc.waitLeader(t, ld.ID(), 10*time.Second)
	if newLd.ID() == ld.ID() {
		t.Fatal("dead leader still leading")
	}
	// Retry window: the new leader may briefly not have quorum confidence.
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if _, err = newLd.Propose([]byte("after"), 2*time.Second); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("propose on new leader: %v", err)
	}
	got := lc.appliedOn(newLd.ID())
	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Fatalf("new leader applied %v, want [before after]", got)
	}
	// A non-leader replica refuses proposals with a redirect hint.
	for _, n := range lc.nodes {
		if n.ID() == ld.ID() || n.ID() == newLd.ID() {
			continue
		}
		if _, err := n.Propose([]byte("x"), 500*time.Millisecond); err == nil {
			t.Fatal("follower accepted a proposal")
		}
	}
}

// TestRoleChangePublishesLeaderLearnedWithTerm: one batch that both raises
// the term and names the leader — a vote request and the winner's first
// append, drained together — publishes both, and wakes RoleChanged.
func TestRoleChangePublishesLeaderLearnedWithTerm(t *testing.T) {
	n := NewNode(NodeConfig{Raft: RaftConfig{ID: 1, Peers: []int{0, 1, 2}}, TickEvery: time.Minute})
	n.Stop() // the test drives the core on its own goroutine from here
	changed := n.RoleChanged()
	n.raft.Step(Message{Type: MsgVoteReq, From: 0, To: 1, Term: 1})
	n.raft.Step(Message{Type: MsgApp, From: 0, To: 1, Term: 1})
	n.processReady()
	select {
	case <-changed:
	default:
		t.Fatal("the batch published no role change")
	}
	if n.Term() != 1 || n.LeaderID() != 0 {
		t.Fatalf("published term %d, leader %d; want term 1, leader 0", n.Term(), n.LeaderID())
	}
}

func TestRebootstrapFromSurvivorSnapshot(t *testing.T) {
	lc := newLiveCluster(t, 3)
	ld := lc.waitLeader(t, -1, 5*time.Second)
	for i := 0; i < 3; i++ {
		if _, err := ld.Propose([]byte(fmt.Sprintf("s-%d", i)), 2*time.Second); err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	snap, err := ld.TakeSnapshot(2 * time.Second)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if snap.LastIndex == 0 {
		t.Fatal("snapshot has no applied state")
	}

	// Operator rebootstrap: a brand-new single-replica cluster seeded from
	// the survivor's snapshot resumes service with the full applied state.
	var rebooted []string
	var mu sync.Mutex
	node := NewNode(NodeConfig{
		Raft:      RaftConfig{ID: 9, Peers: []int{9}, Seed: 55, Restore: &snap},
		TickEvery: 5 * time.Millisecond,
		Apply: func(data []byte) (any, error) {
			mu.Lock()
			rebooted = append(rebooted, string(data))
			mu.Unlock()
			return nil, nil
		},
		Restore: func(data []byte) error {
			rl, err := DecodeReplayLog(data)
			if err != nil {
				return err
			}
			mu.Lock()
			for _, c := range rl.Commands {
				rebooted = append(rebooted, string(c))
			}
			mu.Unlock()
			return nil
		},
		Snapshot: func() []byte { return nil },
	})
	defer node.Stop()
	if _, err := WaitLeader([]*Node{node}, 5*time.Second); err != nil {
		t.Fatalf("rebootstrapped replica: %v", err)
	}
	if _, err := node.Propose([]byte("post-reboot"), 2*time.Second); err != nil {
		t.Fatalf("propose after rebootstrap: %v", err)
	}
	mu.Lock()
	got := append([]string(nil), rebooted...)
	mu.Unlock()
	want := []string{"s-0", "s-1", "s-2", "post-reboot"}
	if len(got) != len(want) {
		t.Fatalf("rebootstrapped state = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebootstrapped state = %v, want %v", got, want)
		}
	}
}
