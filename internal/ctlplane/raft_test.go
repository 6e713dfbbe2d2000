package ctlplane

import (
	"fmt"
	"slices"
	"testing"
)

// cluster is a deterministic in-memory harness: N Raft cores, a message
// pool, and explicit tick/deliver control. No goroutines, no clocks — every
// test run with the same seed takes the same path.
type cluster struct {
	nodes map[int]*Raft
	// inflight holds undelivered messages in send order.
	inflight []Message
	// cut[a][b] drops messages a→b (asymmetric cuts are allowed).
	cut map[int]map[int]bool
	// applied collects each node's applied entries, in order.
	applied map[int][]Entry
	// restored records the last snapshot each node installed.
	restored map[int]*Snapshot
}

func newCluster(ids []int, seed uint64) *cluster {
	c := &cluster{
		nodes:    make(map[int]*Raft),
		cut:      make(map[int]map[int]bool),
		applied:  make(map[int][]Entry),
		restored: make(map[int]*Snapshot),
	}
	for _, id := range ids {
		c.nodes[id] = NewRaft(RaftConfig{
			ID: id, Peers: ids,
			Seed: seed + uint64(id)*977,
		})
	}
	return c
}

// pump drains Ready output into the in-flight pool and applies commits.
func (c *cluster) pump() {
	for id, r := range c.nodes {
		for r.HasReady() {
			rd := r.Ready()
			c.inflight = append(c.inflight, rd.Messages...)
			if rd.Snapshot != nil {
				c.restored[id] = rd.Snapshot
				// Replay semantics: snapshot replaces the applied list.
				c.applied[id] = nil
			}
			c.applied[id] = append(c.applied[id], rd.Committed...)
		}
	}
}

// deliverAll repeatedly delivers every in-flight message (respecting cuts)
// until the network is quiet.
func (c *cluster) deliverAll() {
	c.pump()
	for len(c.inflight) > 0 {
		msgs := c.inflight
		c.inflight = nil
		for _, m := range msgs {
			if c.cut[m.From][m.To] {
				continue
			}
			if n, ok := c.nodes[m.To]; ok {
				n.Step(m)
			}
		}
		c.pump()
	}
}

// tickAll advances every node one tick and settles the network.
func (c *cluster) tickAll() {
	for _, r := range c.nodes {
		r.Tick()
	}
	c.deliverAll()
}

// tickUntilLeader ticks until some node is leader, failing after limit.
func (c *cluster) tickUntilLeader(t *testing.T, limit int) *Raft {
	t.Helper()
	for i := 0; i < limit; i++ {
		c.tickAll()
		if l := c.leader(); l != nil {
			return l
		}
	}
	t.Fatalf("no leader elected in %d ticks", limit)
	return nil
}

func (c *cluster) leader() *Raft {
	for _, r := range c.nodes {
		if r.State() == Leader {
			return r
		}
	}
	return nil
}

// isolate cuts all traffic to and from id.
func (c *cluster) isolate(id int) {
	for other := range c.nodes {
		if other == id {
			continue
		}
		c.cutLink(id, other)
		c.cutLink(other, id)
	}
}

func (c *cluster) cutLink(a, b int) {
	if c.cut[a] == nil {
		c.cut[a] = make(map[int]bool)
	}
	c.cut[a][b] = true
}

func (c *cluster) heal() { c.cut = make(map[int]map[int]bool) }

func TestElectionElectsSingleLeader(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 1)
	ld := c.tickUntilLeader(t, 100)
	n := 0
	for _, r := range c.nodes {
		if r.State() == Leader {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("want exactly 1 leader, got %d", n)
	}
	// Followers learn the leader's identity from its heartbeats.
	c.tickAll()
	for id, r := range c.nodes {
		if r.Leader() != ld.ID() {
			t.Errorf("node %d thinks leader is %d, want %d", id, r.Leader(), ld.ID())
		}
	}
}

func TestReplicationCommitsOnAllReplicas(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 2)
	ld := c.tickUntilLeader(t, 100)
	for i := 0; i < 5; i++ {
		if _, _, ok := ld.Propose([]byte(fmt.Sprintf("cmd-%d", i))); !ok {
			t.Fatalf("propose %d rejected", i)
		}
	}
	c.deliverAll()
	// The commit-index broadcast rides the next heartbeat (every 2 ticks).
	c.tickAll()
	c.tickAll()
	for id := range c.nodes {
		got := c.applied[id]
		if len(got) != 5 {
			t.Fatalf("node %d applied %d entries, want 5", id, len(got))
		}
		for i, e := range got {
			if want := fmt.Sprintf("cmd-%d", i); string(e.Data) != want {
				t.Errorf("node %d entry %d = %q, want %q", id, i, e.Data, want)
			}
		}
	}
}

func TestCommitRequiresQuorum(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 3)
	ld := c.tickUntilLeader(t, 100)
	// Cut the leader off from both followers, then propose.
	c.isolate(ld.ID())
	idx, _, ok := ld.Propose([]byte("orphan"))
	if !ok {
		t.Fatal("propose rejected")
	}
	for i := 0; i < 5; i++ {
		c.tickAll()
	}
	if ld.Commit() >= idx {
		t.Fatalf("entry committed without quorum (commit=%d, entry=%d)", ld.Commit(), idx)
	}
}

func TestLeaderStepsDownOnQuorumLoss(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 4)
	ld := c.tickUntilLeader(t, 100)
	c.isolate(ld.ID())
	// The isolated leader must step down within ~2 election timeouts — the
	// split-brain guard: it stops accepting proposals it could never commit.
	for i := 0; i < 60 && ld.State() == Leader; i++ {
		c.tickAll()
	}
	if ld.State() == Leader {
		t.Fatal("isolated leader never stepped down")
	}
	if _, _, ok := ld.Propose([]byte("x")); ok {
		t.Fatal("stepped-down leader accepted a proposal")
	}
	// The healthy majority elects a replacement.
	var other *Raft
	for _, r := range c.nodes {
		if r.ID() != ld.ID() {
			other = r
			break
		}
	}
	for i := 0; i < 200 && c.leader() == nil; i++ {
		c.tickAll()
	}
	if l := c.leader(); l == nil || l.ID() == ld.ID() {
		t.Fatalf("majority did not elect a new leader (got %v)", l)
	}
	_ = other
}

func TestNewLeaderPreservesCommittedEntries(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 5)
	ld := c.tickUntilLeader(t, 100)
	for i := 0; i < 3; i++ {
		ld.Propose([]byte(fmt.Sprintf("keep-%d", i)))
	}
	c.deliverAll()
	c.tickAll()
	// Kill the leader; the new leader must carry the committed entries.
	c.isolate(ld.ID())
	var newLd *Raft
	for i := 0; i < 300; i++ {
		c.tickAll()
		for _, r := range c.nodes {
			if r.ID() != ld.ID() && r.State() == Leader {
				newLd = r
			}
		}
		if newLd != nil {
			break
		}
	}
	if newLd == nil {
		t.Fatal("no new leader after old leader isolated")
	}
	newLd.Propose([]byte("after"))
	c.deliverAll()
	c.tickAll()
	got := c.applied[newLd.ID()]
	if len(got) != 4 {
		t.Fatalf("new leader applied %d entries, want 4: %v", len(got), got)
	}
	for i := 0; i < 3; i++ {
		if want := fmt.Sprintf("keep-%d", i); string(got[i].Data) != want {
			t.Errorf("entry %d = %q, want %q", i, got[i].Data, want)
		}
	}
	if string(got[3].Data) != "after" {
		t.Errorf("entry 3 = %q, want %q", got[3].Data, "after")
	}
}

func TestSnapshotInstallOnLaggingReplica(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 6)
	ld := c.tickUntilLeader(t, 100)
	// Isolate one follower, then commit and compact past its position.
	var lag int
	for id := range c.nodes {
		if id != ld.ID() {
			lag = id
			break
		}
	}
	c.isolate(lag)
	for i := 0; i < 8; i++ {
		ld.Propose([]byte(fmt.Sprintf("e-%d", i)))
		c.tickAll()
	}
	c.deliverAll()
	// Leader compacts everything applied; followers behind the snapshot
	// index must be caught up by snapshot install.
	if err := ld.Compact(ld.Commit(), []byte("snap-state")); err != nil {
		t.Fatalf("compact: %v", err)
	}
	c.heal()
	for i := 0; i < 100; i++ {
		c.tickAll()
		if c.nodes[lag].LastIndex() >= ld.Commit() {
			break
		}
	}
	snap := c.restored[lag]
	if snap == nil {
		t.Fatal("lagging replica never installed a snapshot")
	}
	if string(snap.Data) != "snap-state" {
		t.Fatalf("installed snapshot data = %q, want %q", snap.Data, "snap-state")
	}
	// And it keeps up with post-snapshot entries.
	ld.Propose([]byte("tail"))
	c.deliverAll()
	c.tickAll()
	c.tickAll()
	got := c.applied[lag]
	if len(got) == 0 || string(got[len(got)-1].Data) != "tail" {
		t.Fatalf("lagging replica did not apply post-snapshot entry: %v", got)
	}
}

func TestRestoreFromSnapshotBootstrapsLog(t *testing.T) {
	// Operator rebootstrap: start a fresh single-replica cluster from a
	// survivor's snapshot; it must lead and extend the log past the
	// snapshot index.
	r := NewRaft(RaftConfig{
		ID: 7, Peers: []int{7}, Seed: 9,
		Restore: &Snapshot{LastIndex: 42, LastTerm: 3, Data: []byte("survivor")},
	})
	// A rebootstrap has no prior hard state: the lone (hence lowest)
	// replica campaigns on its first tick.
	r.Tick()
	if r.State() != Leader || r.Term() != 4 {
		t.Fatalf("single restored replica after one tick: %v in term %d, want leader in term 4", r.State(), r.Term())
	}
	idx, _, ok := r.Propose([]byte("resumed"))
	if !ok || idx != 43 {
		t.Fatalf("propose after restore: idx=%d ok=%v, want idx=43", idx, ok)
	}
	rd := r.Ready()
	if len(rd.Committed) != 1 || string(rd.Committed[0].Data) != "resumed" {
		t.Fatalf("restored replica commit = %+v", rd.Committed)
	}
	if r.snapIndex != 42 || r.snapTerm != 3 || string(r.snapData) != "survivor" {
		t.Fatalf("retained snapshot = (%d, %d, %q), want (42, 3, survivor)", r.snapIndex, r.snapTerm, r.snapData)
	}
}

// TestBootstrapLowestIDLeadsAfterOneTick: in a fresh cluster the lowest ID
// campaigns on its own first tick — the one Node runs as it starts — and wins
// term 1 unopposed after one vote round trip, with no other replica having
// ticked, whatever the seed and however Peers is ordered.
func TestBootstrapLowestIDLeadsAfterOneTick(t *testing.T) {
	for _, ids := range [][]int{{2, 0, 1}, {4, 1, 3, 0, 2}, {9, 5, 7}} {
		lowest := slices.Min(ids)
		for seed := uint64(1); seed <= 50; seed++ {
			c := newCluster(ids, seed)
			c.nodes[lowest].Tick()
			c.deliverAll()
			for id, r := range c.nodes {
				want := Follower
				if id == lowest {
					want = Leader
				}
				if r.State() != want || r.Term() != 1 || r.Leader() != lowest {
					t.Fatalf("peers %v seed %d: replica %d is %v in term %d following %d, want %v in term 1 following %d",
						ids, seed, id, r.State(), r.Term(), r.Leader(), want, lowest)
				}
			}
		}
	}
}

// TestBootstrapWithoutLowestIDFallsBackToTimeouts: with the lowest ID cut
// off from boot, the others elect exactly as before the shortcut — the
// earliest randomized timeout wins, within 2×electionTicks. When two first
// timeouts tie, the vote splits and a later draw decides.
func TestBootstrapWithoutLowestIDFallsBackToTimeouts(t *testing.T) {
	for _, ids := range [][]int{{0, 1, 2}, {0, 1, 2, 3, 4}} {
		ties := 0
		for seed := uint64(1); seed <= 50; seed++ {
			c := newCluster(ids, seed)
			c.isolate(0)
			first, tied := -1, false
			for _, id := range ids[1:] {
				switch tt := c.nodes[id].timeoutTarget; {
				case first < 0 || tt < c.nodes[first].timeoutTarget:
					first, tied = id, false
				case tt == c.nodes[first].timeoutTarget:
					tied = true
				}
			}
			firstTimeout := c.nodes[first].timeoutTarget
			limit := 2 * electionTicks
			if tied {
				ties++
				limit = 10 * electionTicks
			}
			var ld *Raft
			ticks := 0
			for ld == nil && ticks < limit {
				c.tickAll()
				ticks++
				ld = c.leader()
			}
			if ld == nil || ld.ID() == 0 {
				t.Fatalf("peers %v seed %d: no leader among the connected replicas in %d ticks", ids, seed, limit)
			}
			if !tied && (ld.ID() != first || ticks != firstTimeout) {
				t.Fatalf("peers %v seed %d: replica %d led after %d ticks, want replica %d at its first timeout %d",
					ids, seed, ld.ID(), ticks, first, firstTimeout)
			}
		}
		t.Logf("peers %v: %d of 50 seeds tie on the earliest first timeout", ids, ties)
	}
}

// draw returns the n-th output (from 1) of the splitmix64 stream Raft.rand
// draws from a seed.
func draw(seed uint64, n int) uint64 {
	var z uint64
	for i := 0; i < n; i++ {
		seed += 0x9e3779b97f4a7c15
		z = seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// TestBootstrapKeepsOtherReplicasDraws: only the lowest ID's first timeout
// changes. Every other replica's first timeout is the draw it always was,
// and the lowest ID's later timeouts are its own draws 2, 3, ….
func TestBootstrapKeepsOtherReplicasDraws(t *testing.T) {
	// First timeouts of newCluster({0..4}, seed) recorded before the
	// shortcut (replica 0's entry is what it no longer waits).
	recorded := map[uint64][]int{1: {15, 17, 16, 13, 13}, 2: {10, 12, 14, 11, 13}}
	ids := []int{0, 1, 2, 3, 4}
	for seed := uint64(1); seed <= 50; seed++ {
		c := newCluster(ids, seed)
		for _, id := range ids {
			want := 10 + int(draw(seed+uint64(id)*977, 1)%10)
			if rec, ok := recorded[seed]; ok && rec[id] != want {
				t.Fatalf("seed %d replica %d: reference draw %d, recorded %d", seed, id, want, rec[id])
			}
			if id == 0 {
				want = 1
			}
			if got := c.nodes[id].timeoutTarget; got != want {
				t.Fatalf("seed %d replica %d: first timeout %d, want %d", seed, id, got, want)
			}
		}
		c.isolate(0)
		c.tickAll()
		if got, want := c.nodes[0].timeoutTarget, 10+int(draw(seed, 2)%10); got != want {
			t.Fatalf("seed %d: replica 0's second timeout %d, want draw 2 = %d", seed, got, want)
		}
	}
}

// TestCandidateRetransmitsUnansweredVotes: on every tick short of its
// timeout a candidate asks again, in the same term, each peer whose vote
// response has not arrived — granted or refused — so a lost request costs a
// tick, not a randomized timeout of 10–20 and a second campaign.
func TestCandidateRetransmitsUnansweredVotes(t *testing.T) {
	c := newCluster([]int{0, 1, 2, 3, 4}, 1)
	cand := c.nodes[0]
	take := func() []Message {
		c.pump()
		msgs := c.inflight
		c.inflight = nil
		return msgs
	}
	asked := func(msgs []Message) []int {
		t.Helper()
		var to []int
		for _, m := range msgs {
			if m.Type != MsgVoteReq || m.From != 0 || m.Term != 1 {
				t.Fatalf("candidate sent %+v, want only term-1 vote requests", m)
			}
			to = append(to, m.To)
		}
		slices.Sort(to)
		return to
	}

	cand.Tick() // the bootstrap campaign; every request is lost
	if got := asked(take()); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("campaign asked %v, want [1 2 3 4]", got)
	}
	cand.Tick()
	reqs := take()
	if got := asked(reqs); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("first retry asked %v, want [1 2 3 4] again", got)
	}
	// Replica 1 grants. Replica 2 has voted for replica 3 in term 1 and
	// refuses. The requests to 3 and 4 are lost again.
	c.nodes[2].Step(Message{Type: MsgVoteReq, From: 3, To: 2, Term: 1})
	take()
	for _, m := range reqs {
		if m.To == 1 || m.To == 2 {
			c.nodes[m.To].Step(m)
		}
	}
	for _, m := range take() {
		cand.Step(m)
	}
	if cand.State() != Candidate {
		t.Fatalf("with 2 of 5 votes: %v, want a candidate", cand.State())
	}
	cand.Tick()
	retry := take()
	if got := asked(retry); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("second retry asked %v, want only the unanswered [3 4]", got)
	}
	c.inflight = retry
	c.deliverAll()
	for id, r := range c.nodes {
		if r.Term() != 1 || r.Leader() != 0 || (id == 0) != (r.State() == Leader) {
			t.Fatalf("replica %d is %v in term %d following %d, want replica 0 leading term 1", id, r.State(), r.Term(), r.Leader())
		}
	}
}

// TestStepDropsStrangers: the consensus listener decodes frames from anyone
// who connects, so Step ignores a message from outside Peers, from this
// replica itself, or addressed to another replica — a forged vote does not
// count toward a quorum and a forged higher term does not depose a leader.
func TestStepDropsStrangers(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 1)
	c.isolate(0)
	c.tickAll() // replica 0 campaigns for term 1, cut off
	r := c.nodes[0]
	for _, m := range []Message{
		{Type: MsgVoteResp, From: 7, To: 0, Term: 1, Granted: true},
		{Type: MsgVoteResp, From: -1, To: 0, Term: 1, Granted: true},
		{Type: MsgVoteResp, From: 0, To: 0, Term: 1, Granted: true},
	} {
		r.Step(m)
		if r.State() != Candidate {
			t.Fatalf("after %+v: %v, want a candidate still", m, r.State())
		}
	}
	r.Step(Message{Type: MsgVoteResp, From: 1, To: 0, Term: 1, Granted: true})
	if r.State() != Leader {
		t.Fatalf("a member's vote did not elect replica 0: %v", r.State())
	}
	r.Ready()
	for _, m := range []Message{
		{Type: MsgApp, From: 7, To: 0, Term: 9},
		{Type: MsgVoteReq, From: 3, To: 0, Term: 9, LastLogIndex: 99, LastLogTerm: 9},
		{Type: MsgApp, From: 1, To: 2, Term: 9},
		{Type: MsgSnap, From: 0, To: 0, Term: 9, SnapIndex: 5, SnapTerm: 9},
	} {
		r.Step(m)
		if r.State() != Leader || r.Term() != 1 || r.HasReady() {
			t.Fatalf("after %+v: %v in term %d (ready %v), want an untouched leader of term 1", m, r.State(), r.Term(), r.HasReady())
		}
	}
}

// TestStepRejectsMalformedAppends: entries that do not run contiguously from
// PrevIndex+1, or that contradict a committed entry, are nacked and leave
// the log as it was.
func TestStepRejectsMalformedAppends(t *testing.T) {
	c := newCluster([]int{0, 1, 2}, 1)
	ld := c.tickUntilLeader(t, 5)
	ld.Propose([]byte("a"))
	ld.Propose([]byte("b"))
	c.deliverAll()
	c.tickAll()
	c.tickAll()
	f := c.nodes[1]
	if f.Commit() != 2 || f.LastIndex() != 2 {
		t.Fatalf("follower commit %d last %d, want 2 and 2", f.Commit(), f.LastIndex())
	}
	for _, m := range []Message{
		{Entries: []Entry{{Index: 0, Term: 5}}},                                                 // at the snapshot index
		{Entries: []Entry{{Index: 4, Term: 1}}},                                                 // a gap
		{PrevIndex: 1, PrevTerm: 1, Entries: []Entry{{Index: 2, Term: 1}, {Index: 2, Term: 1}}}, // a repeat
		{Entries: []Entry{{Index: 1, Term: 2}}},                                                 // over a committed entry
	} {
		m.Type, m.From, m.To, m.Term = MsgApp, 0, 1, 1
		f.Step(m)
		rd := f.Ready()
		if len(rd.Messages) != 1 || rd.Messages[0].Type != MsgAppResp || rd.Messages[0].Success {
			t.Fatalf("after %+v: sent %+v, want one nack", m, rd.Messages)
		}
		if f.LastIndex() != 2 || len(f.log) != 2 || f.log[0].Term != 1 || f.log[1].Term != 1 || f.Commit() != 2 {
			t.Fatalf("after %+v: log %+v commit %d, want the two committed entries", m, f.log, f.Commit())
		}
	}
}

// follower returns replica 1 of {0, 1, 2} holding entries 1..n of term 1,
// sent by leader 0, with commit as the leader's commit index, its Ready
// drained.
func follower(n, commit uint64) *Raft {
	r := NewRaft(RaftConfig{ID: 1, Peers: []int{0, 1, 2}})
	var entries []Entry
	for i := uint64(1); i <= n; i++ {
		entries = append(entries, Entry{Term: 1, Index: i, Data: []byte{byte(i)}})
	}
	r.Step(Message{Type: MsgApp, From: 0, To: 1, Term: 1, Entries: entries, Commit: commit})
	r.Ready()
	return r
}

// TestSnapshotNeverRewindsTheLog: a snapshot this replica has committed
// already, or whose last entry its log holds, is not installed — the first
// would rewind the applied index and re-apply the entries past it, the
// second would drop entries past it that the replica had acknowledged. Both
// are acked with the committed prefix. TestReplicaStateUnderPartitionFuzz
// (ctlnet) found them as replicas applying an entry twice and as a leader
// missing a committed recovery.
func TestSnapshotNeverRewindsTheLog(t *testing.T) {
	r := follower(5, 5)
	r.Step(Message{Type: MsgSnap, From: 0, To: 1, Term: 1, SnapIndex: 3, SnapTerm: 1, SnapData: []byte("s")})
	rd := r.Ready()
	if rd.Snapshot != nil || len(rd.Committed) != 0 || r.LastIndex() != 5 {
		t.Fatalf("a snapshot at 3 under commit 5: installed %v, re-committed %d entries, log ends at %d", rd.Snapshot != nil, len(rd.Committed), r.LastIndex())
	}
	if m := rd.Messages[0]; m.Type != MsgSnapResp || !m.Success || m.MatchIndex != 5 {
		t.Fatalf("answer %+v, want a successful snap-resp matching 5", m)
	}

	r = follower(8, 2)
	r.Step(Message{Type: MsgSnap, From: 0, To: 1, Term: 1, SnapIndex: 5, SnapTerm: 1, SnapData: []byte("s")})
	rd = r.Ready()
	if rd.Snapshot != nil || r.LastIndex() != 8 || r.Commit() != 5 || len(rd.Committed) != 3 || rd.Committed[0].Index != 3 {
		t.Fatalf("a snapshot at logged entry 5: installed %v, log ends at %d, commit %d, committed %v; want the log kept and entries 3..5 committed", rd.Snapshot != nil, r.LastIndex(), r.Commit(), rd.Committed)
	}
	if m := rd.Messages[0]; !m.Success || m.MatchIndex != 5 {
		t.Fatalf("answer %+v, want success matching 5", m)
	}
}

// TestRejectionHintsBelowAMismatchedAnchor: a follower whose entry at the
// append's anchor has another term hints the index below the anchor, so the
// leader backs off. Hinting its log's end, as it once did, sent the leader
// back to the same anchor forever once pipelining had moved its next index
// past it — a livelock TestReplicaStateUnderPartitionFuzz (ctlnet) found.
func TestRejectionHintsBelowAMismatchedAnchor(t *testing.T) {
	r := follower(5, 0)
	r.Step(Message{Type: MsgApp, From: 2, To: 1, Term: 2, PrevIndex: 5, PrevTerm: 2})
	if m := r.Ready().Messages[0]; m.Success || m.MatchIndex != 4 {
		t.Fatalf("answer %+v, want a rejection hinting 4", m)
	}
	r.Step(Message{Type: MsgApp, From: 2, To: 1, Term: 2, PrevIndex: 9, PrevTerm: 2})
	if m := r.Ready().Messages[0]; m.Success || m.MatchIndex != 5 {
		t.Fatalf("answer %+v beyond the log, want a rejection hinting its end, 5", m)
	}
}
