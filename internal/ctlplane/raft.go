// Package ctlplane is the replicated controller cluster of Section 5.1: a
// dependency-free Raft-style consensus core that elects a leader among
// controller replicas, replicates controller state mutations (failure
// recoveries, backup assignments, circuit reconfigurations) through an
// ordered log, and ships snapshots to lagging replicas — so any replica can
// answer a failure report the instant it becomes leader.
//
// The package splits consensus into two layers. Raft (this file) is a pure,
// deterministic step machine: no goroutines, no clocks, no sockets — time is
// logical ticks, I/O is Step(msg) in and Ready() out. That purity is what
// makes the election-safety property test (randomized partition/heal fuzzing
// with deterministic shrinking) possible. Node (node.go) drives a Raft with
// real timers and a Transport, and the ctlnet cluster wiring applies
// committed commands to each replica's controller.
package ctlplane

import (
	"fmt"
	"slices"
)

// State is a replica's role in the current term.
type State uint8

const (
	// Follower replicas accept log entries from the leader and vote.
	Follower State = iota
	// Candidate replicas are running an election for the current term.
	Candidate
	// Leader replicas accept proposals and drive replication.
	Leader
)

// String names the state ("follower", "candidate", "leader").
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Entry is one replicated log record.
type Entry struct {
	Term  uint64 `json:"term"`
	Index uint64 `json:"index"`
	Data  []byte `json:"data,omitempty"`
}

// MsgType enumerates the consensus wire messages.
type MsgType uint8

const (
	// MsgVoteReq asks a peer for its vote in a new term.
	MsgVoteReq MsgType = iota + 1
	// MsgVoteResp answers a vote request.
	MsgVoteResp
	// MsgApp replicates log entries (empty = heartbeat).
	MsgApp
	// MsgAppResp acknowledges (or rejects) an append.
	MsgAppResp
	// MsgSnap installs a snapshot on a follower whose log is too far behind.
	MsgSnap
	// MsgSnapResp acknowledges a snapshot install.
	MsgSnapResp
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgVoteReq:
		return "vote-req"
	case MsgVoteResp:
		return "vote-resp"
	case MsgApp:
		return "app"
	case MsgAppResp:
		return "app-resp"
	case MsgSnap:
		return "snap"
	case MsgSnapResp:
		return "snap-resp"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Message is one consensus protocol message. A single struct keeps the wire
// codec and the fuzz harness simple; unused fields stay zero.
type Message struct {
	Type MsgType `json:"type"`
	From int     `json:"from"`
	To   int     `json:"to"`
	Term uint64  `json:"term"`

	// MsgVoteReq: the candidate's log position.
	LastLogIndex uint64 `json:"last_log_index,omitempty"`
	LastLogTerm  uint64 `json:"last_log_term,omitempty"`
	// MsgVoteResp.
	Granted bool `json:"granted,omitempty"`

	// MsgApp: the entries and their anchor.
	PrevIndex uint64  `json:"prev_index,omitempty"`
	PrevTerm  uint64  `json:"prev_term,omitempty"`
	Entries   []Entry `json:"entries,omitempty"`
	Commit    uint64  `json:"commit,omitempty"`
	// MsgAppResp / MsgSnapResp.
	Success    bool   `json:"success,omitempty"`
	MatchIndex uint64 `json:"match_index,omitempty"`

	// MsgSnap: the snapshot replacing the follower's log prefix.
	SnapIndex uint64 `json:"snap_index,omitempty"`
	SnapTerm  uint64 `json:"snap_term,omitempty"`
	SnapData  []byte `json:"snap_data,omitempty"`
}

// Snapshot is a compacted log prefix: the state machine's serialized state
// as of LastIndex.
type Snapshot struct {
	LastIndex uint64
	LastTerm  uint64
	Data      []byte
}

const (
	// electionTicks is the base election timeout in ticks; each election
	// waits a randomized timeout in [electionTicks, 2*electionTicks),
	// except the bootstrap election (see NewRaft).
	electionTicks = 10
	// heartbeatTicks is the leader's heartbeat period in ticks.
	heartbeatTicks = 2
	// maxAppEntries bounds entries per MsgApp.
	maxAppEntries = 64
)

// RaftConfig parameterizes one consensus core.
type RaftConfig struct {
	// ID is this replica's identity; Peers lists every cluster member
	// (including ID).
	ID    int
	Peers []int
	// Seed seeds the private PRNG behind the randomized election timeouts,
	// keeping a given configuration's behaviour reproducible. 0 derives a
	// seed from ID.
	Seed uint64
	// Restore, when non-nil, starts the replica from an existing snapshot
	// (operator rebootstrap after quorum loss, or rejoining from backup).
	Restore *Snapshot
}

func (c *RaftConfig) setDefaults() {
	if c.Seed == 0 {
		c.Seed = uint64(c.ID)*0x9e3779b97f4a7c15 + 1
	}
}

// Ready is the output of one or more Step/Tick/Propose calls, drained by the
// driver: messages to send, newly committed entries to apply, and (at most)
// one snapshot to install before applying Committed.
type Ready struct {
	Messages  []Message
	Committed []Entry
	// Snapshot, when non-nil, must be restored into the state machine
	// BEFORE applying Committed: it replaces all state up to its LastIndex.
	Snapshot *Snapshot
}

// Raft is the pure consensus core. It is not safe for concurrent use; the
// Node driver serializes all access on one goroutine.
type Raft struct {
	cfg   RaftConfig
	state State
	term  uint64
	// votedFor is the candidate granted this replica's vote in term
	// (-1 none).
	votedFor int
	// leader is the known leader of the current term (-1 unknown).
	leader int
	// votes holds a candidate's answered vote requests of this term,
	// granted or not (its own vote included); a peer not in it is asked
	// again on every tick.
	votes map[int]bool

	// log holds entries (snapIndex+1 ..); snapIndex/snapTerm anchor the
	// compacted prefix, snapData is the retained snapshot for lagging peers.
	log       []Entry
	snapIndex uint64
	snapTerm  uint64
	snapData  []byte

	commit  uint64
	applied uint64

	next  map[int]uint64
	match map[int]uint64
	// ackElapsed counts ticks since each follower last answered; the leader
	// steps down when it cannot reach a quorum for 2*electionTicks — the
	// quorum-loss halt that prevents split-brain writes.
	ackElapsed map[int]int

	electionElapsed  int
	heartbeatElapsed int
	timeoutTarget    int
	rng              uint64

	// pending Ready output.
	msgs        []Message
	pendingSnap *Snapshot
}

// NewRaft builds a consensus core.
//
// Bootstrap: the replica whose ID is the lowest in Peers campaigns on its
// first Tick instead of after a randomized timeout, so a fresh cluster (or a
// RaftConfig.Restore rebootstrap) serves one vote round trip after that tick,
// which Node runs as soon as it starts. Election safety does not depend on
// timing, and one deterministic early candidate cannot split a vote; every
// other replica, and every later election, keeps the randomized timeout.
// The rule holds only for a replica without prior hard state (term
// and vote) — true of every construction today. A replica restarted from a
// persisted term must not take the shortcut: it would bump the term under a
// healthy leader.
func NewRaft(cfg RaftConfig) *Raft {
	cfg.setDefaults()
	r := &Raft{
		cfg:      cfg,
		votedFor: -1,
		leader:   -1,
		rng:      cfg.Seed,
	}
	if cfg.Restore != nil {
		r.snapIndex = cfg.Restore.LastIndex
		r.snapTerm = cfg.Restore.LastTerm
		r.snapData = cfg.Restore.Data
		r.commit = cfg.Restore.LastIndex
		r.applied = cfg.Restore.LastIndex
		r.term = cfg.Restore.LastTerm
	}
	// Draw the first timeout even when bootstrapping, so the lowest ID's
	// later draws are the ones they always were.
	r.resetTimeout()
	if len(cfg.Peers) > 0 && cfg.ID == slices.Min(cfg.Peers) {
		r.timeoutTarget = 1
	}
	return r
}

// splitmix64 advances the private PRNG.
func (r *Raft) rand() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *Raft) resetTimeout() {
	r.electionElapsed = 0
	r.timeoutTarget = electionTicks + int(r.rand()%electionTicks)
}

// ID returns this replica's identity.
func (r *Raft) ID() int { return r.cfg.ID }

// State returns the replica's current role.
func (r *Raft) State() State { return r.state }

// Term returns the current term.
func (r *Raft) Term() uint64 { return r.term }

// Leader returns the known leader of the current term, -1 if unknown.
func (r *Raft) Leader() int { return r.leader }

// Commit returns the commit index.
func (r *Raft) Commit() uint64 { return r.commit }

// LastIndex returns the index of the last log entry.
func (r *Raft) LastIndex() uint64 { return r.snapIndex + uint64(len(r.log)) }

// LogBytes approximates retained log size for the compaction heuristic and
// the replica gauges.
func (r *Raft) LogBytes() int {
	n := 0
	for i := range r.log {
		n += len(r.log[i].Data) + 16
	}
	return n
}

func (r *Raft) lastTerm() uint64 {
	if len(r.log) == 0 {
		return r.snapTerm
	}
	return r.log[len(r.log)-1].Term
}

// entryTerm returns the term of the entry at index (0 for index 0), and
// whether the index is still in reach (not compacted away, not beyond the
// log).
func (r *Raft) entryTerm(index uint64) (uint64, bool) {
	if index == r.snapIndex {
		return r.snapTerm, true
	}
	if index < r.snapIndex || index > r.LastIndex() {
		return 0, false
	}
	return r.log[index-r.snapIndex-1].Term, true
}

func (r *Raft) quorum() int { return len(r.cfg.Peers)/2 + 1 }

func (r *Raft) send(m Message) {
	m.From = r.cfg.ID
	m.Term = r.term
	r.msgs = append(r.msgs, m)
}

// Tick advances logical time by one unit: election timeouts for followers
// and candidates, vote-request retries for candidates, heartbeats and the
// quorum-loss check for leaders.
func (r *Raft) Tick() {
	switch r.state {
	case Follower, Candidate:
		r.electionElapsed++
		if r.electionElapsed >= r.timeoutTarget {
			r.campaign()
		} else if r.state == Candidate {
			// Retry unanswered requests in the same term: one lost request
			// costs a tick, not a randomized timeout of 10–20.
			r.requestVotes()
		}
	case Leader:
		r.heartbeatElapsed++
		reached := 1 // self
		for _, p := range r.cfg.Peers {
			if p == r.cfg.ID {
				continue
			}
			r.ackElapsed[p]++
			if r.ackElapsed[p] < 2*electionTicks {
				reached++
			}
		}
		if reached < r.quorum() {
			// Quorum lost: step down rather than keep accepting writes
			// that can never commit (and could split-brain with a new
			// leader elected on the other side of a partition).
			r.becomeFollower(r.term, -1)
			return
		}
		if r.heartbeatElapsed >= heartbeatTicks {
			r.heartbeatElapsed = 0
			r.broadcastApp()
		}
	}
}

func (r *Raft) campaign() {
	r.state = Candidate
	r.term++
	r.votedFor = r.cfg.ID
	r.leader = -1
	r.votes = map[int]bool{r.cfg.ID: true}
	r.resetTimeout()
	if len(r.cfg.Peers) == 1 {
		r.becomeLeader()
		return
	}
	r.requestVotes()
}

// requestVotes asks every peer that has not answered this term's campaign.
func (r *Raft) requestVotes() {
	for _, p := range r.cfg.Peers {
		if _, answered := r.votes[p]; answered {
			continue
		}
		r.send(Message{
			Type: MsgVoteReq, To: p,
			LastLogIndex: r.LastIndex(), LastLogTerm: r.lastTerm(),
		})
	}
}

func (r *Raft) becomeFollower(term uint64, leader int) {
	if term > r.term {
		r.term = term
		r.votedFor = -1
	}
	r.state = Follower
	r.leader = leader
	r.votes = nil
	r.resetTimeout()
}

func (r *Raft) becomeLeader() {
	r.state = Leader
	r.leader = r.cfg.ID
	r.heartbeatElapsed = 0
	r.next = make(map[int]uint64, len(r.cfg.Peers))
	r.match = make(map[int]uint64, len(r.cfg.Peers))
	r.ackElapsed = make(map[int]int, len(r.cfg.Peers))
	for _, p := range r.cfg.Peers {
		r.next[p] = r.LastIndex() + 1
		r.match[p] = 0
	}
	r.match[r.cfg.ID] = r.LastIndex()
	r.broadcastApp()
}

// Propose appends data to the log if this replica is the leader, returning
// the entry's (index, term). ok is false on non-leaders.
func (r *Raft) Propose(data []byte) (index, term uint64, ok bool) {
	if r.state != Leader {
		return 0, 0, false
	}
	e := Entry{Term: r.term, Index: r.LastIndex() + 1, Data: data}
	r.log = append(r.log, e)
	r.match[r.cfg.ID] = e.Index
	if len(r.cfg.Peers) == 1 {
		r.advanceCommit()
	} else {
		r.broadcastApp()
	}
	return e.Index, e.Term, true
}

func (r *Raft) broadcastApp() {
	for _, p := range r.cfg.Peers {
		if p != r.cfg.ID {
			r.sendApp(p)
		}
	}
}

// sendApp sends the next batch of entries (or a heartbeat, or a snapshot if
// the follower's position was compacted away) to one follower.
func (r *Raft) sendApp(to int) {
	next := r.next[to]
	if next <= r.snapIndex {
		r.send(Message{
			Type: MsgSnap, To: to,
			SnapIndex: r.snapIndex, SnapTerm: r.snapTerm, SnapData: r.snapData,
		})
		return
	}
	prev := next - 1
	prevTerm, ok := r.entryTerm(prev)
	if !ok {
		return
	}
	var entries []Entry
	if next <= r.LastIndex() {
		from := next - r.snapIndex - 1
		n := uint64(len(r.log)) - from
		if n > maxAppEntries {
			n = maxAppEntries
		}
		entries = r.log[from : from+n]
	}
	r.send(Message{
		Type: MsgApp, To: to,
		PrevIndex: prev, PrevTerm: prevTerm,
		Entries: entries, Commit: r.commit,
	})
	if len(entries) > 0 {
		// Optimistic pipelining: assume the batch lands and advance next
		// past it, so a burst of proposals streams each entry once instead
		// of re-sending the whole unacknowledged window on every propose
		// (which grows O(n²) bytes and can delay heartbeats behind the
		// backlog until the leader misreads its quorum as unreachable).
		// A lost batch heals through the usual rejection path: the next
		// heartbeat's PrevIndex won't match, the follower nacks with its
		// hint, and next backs off.
		r.next[to] = entries[len(entries)-1].Index + 1
	}
}

// Step feeds one incoming message into the core. The consensus listener
// decodes frames from anyone who connects, so a message not addressed to
// this replica, or not from another member, is dropped unread.
func (r *Raft) Step(m Message) {
	if m.To != r.cfg.ID || m.From == r.cfg.ID || !slices.Contains(r.cfg.Peers, m.From) {
		return
	}
	if m.Term > r.term {
		leader := -1
		if m.Type == MsgApp || m.Type == MsgSnap {
			leader = m.From
		}
		r.becomeFollower(m.Term, leader)
	}
	switch m.Type {
	case MsgVoteReq:
		r.stepVoteReq(m)
	case MsgVoteResp:
		r.stepVoteResp(m)
	case MsgApp:
		r.stepApp(m)
	case MsgAppResp:
		r.stepAppResp(m)
	case MsgSnap:
		r.stepSnap(m)
	case MsgSnapResp:
		r.stepSnapResp(m)
	}
}

func (r *Raft) stepVoteReq(m Message) {
	grant := false
	if m.Term >= r.term && (r.votedFor == -1 || r.votedFor == m.From) {
		// Election restriction: only vote for candidates whose log is at
		// least as up to date as ours.
		upToDate := m.LastLogTerm > r.lastTerm() ||
			(m.LastLogTerm == r.lastTerm() && m.LastLogIndex >= r.LastIndex())
		if upToDate {
			grant = true
			r.votedFor = m.From
			r.resetTimeout()
		}
	}
	r.send(Message{Type: MsgVoteResp, To: m.From, Granted: grant})
}

func (r *Raft) stepVoteResp(m Message) {
	if r.state != Candidate || m.Term != r.term {
		return
	}
	r.votes[m.From] = m.Granted
	granted := 0
	for _, g := range r.votes {
		if g {
			granted++
		}
	}
	if granted >= r.quorum() {
		r.becomeLeader()
	}
}

func (r *Raft) stepApp(m Message) {
	if m.Term < r.term {
		r.send(Message{Type: MsgAppResp, To: m.From, Success: false, MatchIndex: r.LastIndex()})
		return
	}
	// A current-term append asserts leadership.
	r.state = Follower
	r.leader = m.From
	r.resetTimeout()

	// The entries must run contiguously from PrevIndex+1: everything below
	// indexes the log by position on that promise.
	for i := range m.Entries {
		if m.Entries[i].Index != m.PrevIndex+1+uint64(i) {
			r.send(Message{Type: MsgAppResp, To: m.From, Success: false, MatchIndex: r.LastIndex()})
			return
		}
	}
	prevTerm, reachable := r.entryTerm(m.PrevIndex)
	if m.PrevIndex < r.snapIndex {
		// The anchor predates our snapshot: everything up to snapIndex is
		// already committed and applied; skip the overlap.
		trimmed := false
		for i := range m.Entries {
			if m.Entries[i].Index == r.snapIndex+1 {
				m.Entries = m.Entries[i:]
				m.PrevIndex = r.snapIndex
				m.PrevTerm = r.snapTerm
				prevTerm, reachable = r.snapTerm, true
				trimmed = true
				break
			}
		}
		if !trimmed {
			// Entirely inside the snapshot: ack our position.
			r.send(Message{Type: MsgAppResp, To: m.From, Success: true, MatchIndex: r.snapIndex})
			return
		}
	}
	if !reachable || prevTerm != m.PrevTerm {
		r.send(Message{Type: MsgAppResp, To: m.From, Success: false, MatchIndex: r.LastIndex()})
		return
	}
	// Append, truncating any conflicting suffix.
	for _, e := range m.Entries {
		if have, ok := r.entryTerm(e.Index); ok && e.Index <= r.LastIndex() {
			if have == e.Term {
				continue
			}
			if e.Index <= r.commit {
				// No leader's log contradicts a committed entry; only a
				// forged or corrupt append can. Nothing is truncated yet:
				// every earlier entry in m matched.
				r.send(Message{Type: MsgAppResp, To: m.From, Success: false, MatchIndex: r.LastIndex()})
				return
			}
			r.log = r.log[:e.Index-r.snapIndex-1]
		}
		r.log = append(r.log, e)
	}
	matched := m.PrevIndex + uint64(len(m.Entries))
	if m.Commit > r.commit {
		c := m.Commit
		if c > matched {
			c = matched
		}
		if c > r.commit {
			r.commit = c
		}
	}
	r.send(Message{Type: MsgAppResp, To: m.From, Success: true, MatchIndex: matched})
}

func (r *Raft) stepAppResp(m Message) {
	if r.state != Leader || m.Term != r.term {
		return
	}
	r.ackElapsed[m.From] = 0
	if m.Success {
		if m.MatchIndex > r.match[m.From] {
			r.match[m.From] = m.MatchIndex
		}
		if m.MatchIndex+1 > r.next[m.From] {
			r.next[m.From] = m.MatchIndex + 1
		}
		r.advanceCommit()
		if r.next[m.From] <= r.LastIndex() {
			r.sendApp(m.From)
		}
		return
	}
	// Rejection: back off to the follower's hint and retry.
	hint := m.MatchIndex + 1
	if hint < r.next[m.From] {
		r.next[m.From] = hint
	} else if r.next[m.From] > 1 {
		r.next[m.From]--
	}
	r.sendApp(m.From)
}

func (r *Raft) stepSnap(m Message) {
	if m.Term < r.term {
		r.send(Message{Type: MsgSnapResp, To: m.From, MatchIndex: r.LastIndex()})
		return
	}
	r.state = Follower
	r.leader = m.From
	r.resetTimeout()
	if m.SnapIndex <= r.snapIndex {
		// Already have it.
		r.send(Message{Type: MsgSnapResp, To: m.From, Success: true, MatchIndex: r.LastIndex()})
		return
	}
	snap := &Snapshot{LastIndex: m.SnapIndex, LastTerm: m.SnapTerm, Data: m.SnapData}
	r.log = nil
	r.snapIndex = m.SnapIndex
	r.snapTerm = m.SnapTerm
	r.snapData = m.SnapData
	r.commit = m.SnapIndex
	r.applied = m.SnapIndex
	r.pendingSnap = snap
	r.send(Message{Type: MsgSnapResp, To: m.From, Success: true, MatchIndex: m.SnapIndex})
}

func (r *Raft) stepSnapResp(m Message) {
	if r.state != Leader || m.Term != r.term {
		return
	}
	r.ackElapsed[m.From] = 0
	if m.MatchIndex > r.match[m.From] {
		r.match[m.From] = m.MatchIndex
	}
	if m.MatchIndex+1 > r.next[m.From] {
		r.next[m.From] = m.MatchIndex + 1
	}
	if r.next[m.From] <= r.LastIndex() {
		r.sendApp(m.From)
	}
}

// advanceCommit moves the commit index to the highest current-term entry
// replicated on a quorum.
func (r *Raft) advanceCommit() {
	for idx := r.LastIndex(); idx > r.commit; idx-- {
		t, ok := r.entryTerm(idx)
		if !ok || t != r.term {
			// Only current-term entries commit by counting (Raft §5.4.2);
			// older ones commit transitively.
			continue
		}
		n := 0
		for _, p := range r.cfg.Peers {
			if r.match[p] >= idx {
				n++
			}
		}
		if n >= r.quorum() {
			r.commit = idx
			break
		}
	}
}

// Compact discards the log prefix up to index, retaining data as the
// snapshot sent to followers that have fallen behind the remaining log.
// index must be applied already.
func (r *Raft) Compact(index uint64, data []byte) error {
	if index <= r.snapIndex {
		return nil
	}
	if index > r.applied {
		return fmt.Errorf("ctlplane: compact index %d beyond applied %d", index, r.applied)
	}
	t, ok := r.entryTerm(index)
	if !ok {
		return fmt.Errorf("ctlplane: compact index %d unreachable", index)
	}
	r.log = append([]Entry(nil), r.log[index-r.snapIndex:]...)
	r.snapIndex = index
	r.snapTerm = t
	r.snapData = data
	return nil
}

// HasReady reports whether Ready would return any work.
func (r *Raft) HasReady() bool {
	return len(r.msgs) > 0 || r.commit > r.applied || r.pendingSnap != nil
}

// Ready drains the core's pending output: outgoing messages, a snapshot to
// install (if any), and newly committed entries. The caller must install the
// snapshot first, then apply Committed in order; Ready advances the applied
// index, so each committed entry is returned exactly once.
func (r *Raft) Ready() Ready {
	rd := Ready{Messages: r.msgs, Snapshot: r.pendingSnap}
	r.msgs = nil
	r.pendingSnap = nil
	if r.commit > r.applied {
		from := r.applied - r.snapIndex
		to := r.commit - r.snapIndex
		rd.Committed = append([]Entry(nil), r.log[from:to]...)
		r.applied = r.commit
	}
	return rd
}
