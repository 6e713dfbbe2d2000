package ctlplane

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"sharebackup/internal/obs"
)

// ErrNotLeader is returned by Propose on a replica that is not the cluster
// leader. Callers (the ctlnet server) surface it as a redirect.
var ErrNotLeader = errors.New("ctlplane: not leader")

// ErrLostLeadership is returned for proposals that were accepted into the
// log but whose commit was preempted by a leadership change.
var ErrLostLeadership = errors.New("ctlplane: lost leadership before commit")

// ErrStopped is returned when the node has shut down.
var ErrStopped = errors.New("ctlplane: node stopped")

// Transport delivers consensus messages between replicas. Send is
// best-effort: consensus tolerates loss (retries ride the tick loop), so a
// failed send is dropped, not retried by the transport.
type Transport interface {
	Send(m Message)
}

// compactEvery is how many applied entries a replica takes between log
// compactions (when it has a Snapshot hook).
const compactEvery = 1024

// NodeConfig parameterizes a live replica driver.
type NodeConfig struct {
	Raft RaftConfig
	// TickEvery is the wall-clock length of one logical tick. Default 25ms.
	// A fresh cluster's first election waits no tick: a node ticks once as
	// it starts, and the lowest ID campaigns on that tick (see NewRaft).
	// Every later election waits a randomized electionTicks to
	// 2×electionTicks ticks, 250–500ms at the default.
	TickEvery time.Duration
	// Transport sends consensus messages to peers; incoming messages are
	// fed through Node.Deliver.
	Transport Transport
	// Apply applies one committed command to the replica's state machine,
	// in log order. Its result resolves the leader's matching Propose call.
	// Deterministic across replicas by construction (same log, same state).
	Apply func(data []byte) (any, error)
	// Restore rebuilds the state machine from a snapshot (lagging-replica
	// install, or RaftConfig.Restore rebootstrap). May be nil if snapshots
	// are never shipped.
	Restore func(data []byte) error
	// Snapshot serializes the state machine for log compaction. May be nil
	// to disable compaction.
	Snapshot func() []byte

	// Bus receives leader-elected / leader-lost events and a log line for
	// each failed restore or compaction (nil-safe), stamped on the process
	// epoch (obs.Now).
	Bus *obs.Bus
	// Metrics resolves the replica gauges (nil → private registry).
	Metrics *obs.Registry
}

type proposeReq struct {
	data []byte
	ch   chan proposeResult
}

type proposeResult struct {
	val any
	err error
}

type waiter struct {
	term uint64
	ch   chan proposeResult
}

// Node drives one Raft core with real time and a Transport, applying
// committed entries to the replica's state machine. All consensus state is
// confined to the run goroutine; the exported surface is channel-fed and
// safe for concurrent use.
type Node struct {
	cfg  NodeConfig
	raft *Raft

	inbox    chan Message
	proposes chan proposeReq
	snapshot chan chan Snapshot
	quit     chan struct{}
	done     chan struct{}

	// Observed role, readable without touching the run goroutine.
	isLeader atomic.Bool
	leader   atomic.Int64 // current known leader ID, -1 unknown
	term     atomic.Uint64
	// roleChanged is closed, and replaced, after each change to the three
	// above (see RoleChanged).
	roleChanged atomic.Pointer[chan struct{}]

	waiters      map[uint64]waiter
	sinceCompact uint64

	gTerm     *obs.Gauge
	gIsLeader *obs.Gauge
	gCommit   *obs.Gauge
	gLogBytes *obs.Gauge
	cElected  *obs.Counter
	cStepdown *obs.Counter

	stopOnce sync.Once
}

// NewNode builds and starts a replica driver.
func NewNode(cfg NodeConfig) *Node {
	if cfg.TickEvery == 0 {
		cfg.TickEvery = 25 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n := &Node{
		cfg:      cfg,
		raft:     NewRaft(cfg.Raft),
		inbox:    make(chan Message, 1024),
		proposes: make(chan proposeReq, 64),
		snapshot: make(chan chan Snapshot),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		waiters:  make(map[uint64]waiter),
	}
	n.leader.Store(-1)
	changed := make(chan struct{})
	n.roleChanged.Store(&changed)
	label := fmt.Sprintf("ctlplane.replica%d.", cfg.Raft.ID)
	n.gTerm = reg.Gauge(label + "term")
	n.gIsLeader = reg.Gauge(label + "is_leader")
	n.gCommit = reg.Gauge(label + "commit_index")
	n.gLogBytes = reg.Gauge(label + "log_bytes")
	n.cElected = reg.Counter(label + "elections_won")
	n.cStepdown = reg.Counter(label + "stepdowns")
	if cfg.Raft.Restore != nil && cfg.Restore != nil {
		if err := cfg.Restore(cfg.Raft.Restore.Data); err != nil {
			cfg.Bus.Logf(obs.Now(), true, "ctlplane: replica %d restore: %v", cfg.Raft.ID, err)
		}
	}
	go n.run()
	return n
}

// ID returns the replica's identity.
func (n *Node) ID() int { return n.cfg.Raft.ID }

// IsLeader reports whether this replica currently believes it is the leader.
func (n *Node) IsLeader() bool { return n.isLeader.Load() }

// LeaderID returns the last known leader's replica ID, -1 if unknown.
func (n *Node) LeaderID() int { return int(n.leader.Load()) }

// Term returns the replica's current term.
func (n *Node) Term() uint64 { return n.term.Load() }

// RoleChanged returns a channel that is closed at the replica's next change
// of leadership, known leader or term, and when it stops. Take the channel
// before reading the role: a change in between then closes the channel
// already in hand instead of being missed.
func (n *Node) RoleChanged() <-chan struct{} { return *n.roleChanged.Load() }

// publishRole wakes every RoleChanged waiter; call it after storing the role.
func (n *Node) publishRole() {
	next := make(chan struct{})
	close(*n.roleChanged.Swap(&next))
}

// WaitLeader returns the first of nodes that leads, waiting on their role
// changes, and fails once timeout has passed with none leading.
func WaitLeader(nodes []*Node, timeout time.Duration) (*Node, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	cases := make([]reflect.SelectCase, len(nodes)+1)
	cases[len(nodes)] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}
	for {
		for i, n := range nodes {
			cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(n.RoleChanged())}
		}
		for _, n := range nodes {
			if n.IsLeader() {
				return n, nil
			}
		}
		if chosen, _, _ := reflect.Select(cases); chosen == len(nodes) {
			return nil, fmt.Errorf("ctlplane: no replica led within %v", timeout)
		}
	}
}

// Deliver feeds one incoming consensus message into the replica. Never
// blocks: messages are dropped if the replica is saturated or stopped
// (consensus retries via ticks).
func (n *Node) Deliver(m Message) {
	select {
	case n.inbox <- m:
	case <-n.done:
	default:
	}
}

// Propose replicates one command through the log and, once committed and
// applied locally, returns Apply's result. Fails fast with ErrNotLeader on
// non-leaders and ErrLostLeadership when an election preempts the commit.
func (n *Node) Propose(data []byte, timeout time.Duration) (any, error) {
	req := proposeReq{data: data, ch: make(chan proposeResult, 1)}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case n.proposes <- req:
	case <-n.done:
		return nil, ErrStopped
	case <-t.C:
		return nil, fmt.Errorf("ctlplane: propose enqueue timed out after %v", timeout)
	}
	select {
	case res := <-req.ch:
		return res.val, res.err
	case <-n.done:
		return nil, ErrStopped
	case <-t.C:
		return nil, fmt.Errorf("ctlplane: propose timed out after %v", timeout)
	}
}

// TakeSnapshot returns a snapshot of the replica's applied state (the
// operator handle for quorum-loss rebootstrap: feed it to a fresh cluster
// via RaftConfig.Restore). Runs on the consensus goroutine so the state
// machine is quiescent.
func (n *Node) TakeSnapshot(timeout time.Duration) (Snapshot, error) {
	if n.cfg.Snapshot == nil {
		return Snapshot{}, errors.New("ctlplane: no snapshot hook configured")
	}
	ch := make(chan Snapshot, 1)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case n.snapshot <- ch:
	case <-n.done:
		return Snapshot{}, ErrStopped
	case <-t.C:
		return Snapshot{}, fmt.Errorf("ctlplane: snapshot request timed out after %v", timeout)
	}
	select {
	case snap := <-ch:
		return snap, nil
	case <-n.done:
		return Snapshot{}, ErrStopped
	case <-t.C:
		return Snapshot{}, fmt.Errorf("ctlplane: snapshot timed out after %v", timeout)
	}
}

// Stop shuts the replica down. Pending proposals fail with ErrStopped. A
// stopped replica no longer reports leadership: it can neither replicate
// nor serve, and pollers (cluster directories, emulation harnesses) must
// not route to it.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.quit) })
	<-n.done
	n.isLeader.Store(false)
	n.publishRole()
}

func (n *Node) run() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.TickEvery)
	defer ticker.Stop()
	// The first tick runs now, not TickEvery from now: it is the one the
	// lowest ID campaigns on at bootstrap.
	n.raft.Tick()
	n.processReady()
	for {
		select {
		case <-n.quit:
			n.failWaiters(ErrStopped)
			return
		case <-ticker.C:
			n.raft.Tick()
		case m := <-n.inbox:
			n.raft.Step(m)
			// Drain any burst without waiting for the next loop turn.
			for drained := 0; drained < 256; drained++ {
				select {
				case m := <-n.inbox:
					n.raft.Step(m)
				default:
					drained = 256
				}
			}
		case req := <-n.proposes:
			n.handlePropose(req)
		case ch := <-n.snapshot:
			ch <- Snapshot{
				LastIndex: n.raft.applied,
				LastTerm:  n.raft.term,
				Data:      n.cfg.Snapshot(),
			}
		}
		n.processReady()
	}
}

func (n *Node) handlePropose(req proposeReq) {
	index, term, ok := n.raft.Propose(req.data)
	if !ok {
		req.ch <- proposeResult{err: fmt.Errorf("%w (leader=%d)", ErrNotLeader, n.raft.Leader())}
		return
	}
	n.waiters[index] = waiter{term: term, ch: req.ch}
}

func (n *Node) failWaiters(err error) {
	for idx, w := range n.waiters {
		w.ch <- proposeResult{err: err}
		delete(n.waiters, idx)
	}
}

func (n *Node) processReady() {
	wasLeader := n.isLeader.Load()
	prevTerm := n.term.Load()
	for n.raft.HasReady() {
		rd := n.raft.Ready()
		for _, m := range rd.Messages {
			if n.cfg.Transport != nil {
				n.cfg.Transport.Send(m)
			}
		}
		if rd.Snapshot != nil && n.cfg.Restore != nil {
			if err := n.cfg.Restore(rd.Snapshot.Data); err != nil {
				n.cfg.Bus.Logf(obs.Now(), true, "ctlplane: replica %d snapshot restore at index %d: %v", n.raft.ID(), rd.Snapshot.LastIndex, err)
			}
		}
		for _, e := range rd.Committed {
			var res proposeResult
			if n.cfg.Apply != nil && len(e.Data) > 0 {
				res.val, res.err = n.cfg.Apply(e.Data)
			}
			if w, ok := n.waiters[e.Index]; ok {
				delete(n.waiters, e.Index)
				if w.term == e.Term {
					w.ch <- res
				} else {
					w.ch <- proposeResult{err: ErrLostLeadership}
				}
			}
			n.sinceCompact++
		}
		if n.cfg.Snapshot != nil && n.sinceCompact >= compactEvery {
			n.sinceCompact = 0
			if err := n.raft.Compact(n.raft.applied, n.cfg.Snapshot()); err != nil {
				n.cfg.Bus.Logf(obs.Now(), true, "ctlplane: replica %d compact: %v", n.raft.ID(), err)
			}
		}
	}

	// Publish role transitions.
	isLeader := n.raft.State() == Leader
	term := n.raft.Term()
	if isLeader && (!wasLeader || term != prevTerm) {
		// Counted before the role is stored: whoever sees this leader sees
		// its election counted.
		n.cElected.Inc()
		n.emitRole(obs.KindLeaderElected, term)
	}
	n.isLeader.Store(isLeader)
	leader := int64(n.raft.Leader())
	prevLeader := n.leader.Swap(leader)
	changed := isLeader != wasLeader || term != prevTerm || leader != prevLeader
	n.term.Store(term)
	n.gTerm.Set(int64(term))
	n.gCommit.Set(int64(n.raft.Commit()))
	n.gLogBytes.Set(int64(n.raft.LogBytes()))
	if isLeader {
		n.gIsLeader.Set(1)
	} else {
		n.gIsLeader.Set(0)
	}
	if wasLeader && !isLeader {
		n.cStepdown.Inc()
		n.failWaiters(ErrLostLeadership)
		n.emitRole(obs.KindLeaderLost, term)
	}
	if changed {
		n.publishRole()
	}
}

func (n *Node) emitRole(kind obs.Kind, term uint64) {
	if !n.cfg.Bus.Enabled() {
		return
	}
	ev := obs.NewEvent(kind, obs.Now())
	ev.Wall = true
	ev.Switch = int32(n.raft.ID())
	ev.Count = int32(term)
	n.cfg.Bus.Emit(ev)
}
