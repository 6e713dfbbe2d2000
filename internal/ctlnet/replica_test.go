package ctlnet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/sbnet"
)

// splitmix is the seeded PRNG of the replica harnesses (ctlplane's fuzzRun
// draws the same way): next(n) is uniform in [0, n).
type splitmix uint64

func (s *splitmix) next(n uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) % n
}

// newTestReplica builds a fresh replica state over a k=4 fabric with n
// backups per failure group.
func newTestReplica(n int) (*replicaState, error) {
	nw, err := sbnet.New(sbnet.Config{K: 4, N: n, Tech: circuit.Crosspoint})
	if err != nil {
		return nil, err
	}
	return &replicaState{ctl: controller.New(nw, controller.Config{})}, nil
}

// cmdGen draws the replicated commands of a seeded run: node recoveries of
// any switch (spares and failed ones included, which the controller
// refuses) and link reports between an edge switch's up-port and an
// aggregation switch of the same pod. The leader's clock advances 0–250 ms
// per command. One command in 40 starts a burst, a failing circuit switch
// (§5.1): the next five are reports of links through one CS2 under 50 ms
// apart, enough to cross its threshold. One command in 32 names a switch
// outside the fabric.
type cmdGen struct {
	rng       *splitmix
	edge, agg [][]sbnet.SwitchID // members by pod
	numSwitch int
	now       time.Duration
	// burst counts the burst's reports still to come, on up-port burstJ of
	// pod burstPod's edge switches.
	burst, burstPod, burstJ int
}

func newCmdGen(rng *splitmix, nw *sbnet.Network) *cmdGen {
	g := &cmdGen{rng: rng, numSwitch: nw.NumSwitches()}
	for pod := 0; pod < nw.K(); pod++ {
		g.edge = append(g.edge, nw.EdgeGroup(pod).Members)
		g.agg = append(g.agg, nw.AggGroup(pod).Members)
	}
	return g
}

func (g *cmdGen) pick(ids []sbnet.SwitchID) int32 { return int32(ids[g.rng.next(uint64(len(ids)))]) }

func (g *cmdGen) next() []byte {
	half := uint64(len(g.edge) / 2)
	if g.burst == 0 && g.rng.next(40) == 0 {
		g.burst, g.burstPod, g.burstJ = 5, int(g.rng.next(2*half)), int(g.rng.next(half))
	}
	step := uint64(250)
	if g.burst > 0 {
		step = 50
	}
	g.now += time.Duration(g.rng.next(step)) * time.Millisecond
	cmd := ctlplane.Command{Kind: ctlplane.CmdRecoverLink, AtNS: int64(g.now)}
	switch {
	case g.burst > 0:
		g.burst--
		cmd.ASwitch, cmd.APort = g.pick(g.edge[g.burstPod]), int32(int(half)+g.burstJ)
		cmd.BSwitch, cmd.BPort = g.pick(g.agg[g.burstPod]), int32(g.rng.next(half))
	case g.rng.next(5) < 2:
		cmd.Kind = ctlplane.CmdRecoverNode
		cmd.Switch = int32(g.rng.next(uint64(g.numSwitch)))
		cmd.LastSeenNS = int64(g.now) - int64(1+g.rng.next(100))*int64(time.Millisecond)
	default:
		pod := g.rng.next(2 * half)
		cmd.ASwitch, cmd.APort = g.pick(g.edge[pod]), int32(half+g.rng.next(half))
		cmd.BSwitch, cmd.BPort = g.pick(g.agg[pod]), int32(g.rng.next(half))
		cmd.DetectionNS = int64(g.rng.next(3)) * int64(time.Millisecond)
	}
	if g.rng.next(32) == 0 {
		cmd.Switch, cmd.BSwitch = int32(g.numSwitch), -1
	}
	return cmd.Encode()
}

// stateDigest renders everything a replica's controller decides: every
// switch's role and slot, every group's slot map and free backups, the halt
// flag, and every recovery record with its times.
func stateDigest(r *replicaState) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	nw := r.ctl.Network()
	for id := 0; id < nw.NumSwitches(); id++ {
		sw := nw.Switch(sbnet.SwitchID(id))
		fmt.Fprintf(&b, "%d:%v/%d ", id, sw.Role, sw.Slot)
	}
	for g := 0; g < nw.NumGroups(); g++ {
		gid := sbnet.GroupID(g)
		fmt.Fprintf(&b, "\ng%d slots=%v free=%v", g, nw.Group(gid).Slots(), nw.FreeBackups(gid))
	}
	fmt.Fprintf(&b, "\nhalted=%v", r.ctl.Halted())
	for _, rec := range r.ctl.Recoveries() {
		b.WriteString("\n" + recoveryDigest(&rec))
	}
	return b.String()
}

func recoveryDigest(rec *controller.Recovery) string {
	return fmt.Sprintf("%s %v->%v det=%d comm=%d reconf=%d", rec.Kind, rec.Failed, rec.Backup, rec.Detection, rec.Comm, rec.Reconfig)
}

// checkPositions fails when a backup holds two positions: a switch in two
// slots, a slot occupant that is not active in that very slot, or one still
// listed as a free backup. Then the circuits must realize the slot maps.
func checkPositions(r *replicaState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	nw := r.ctl.Network()
	held := map[sbnet.SwitchID]bool{}
	for g := 0; g < nw.NumGroups(); g++ {
		gid := sbnet.GroupID(g)
		free := nw.FreeBackups(gid)
		for slot, id := range nw.Group(gid).Slots() {
			if sw := nw.Switch(id); held[id] || sw.Role != sbnet.RoleActive || sw.Slot != slot || slices.Contains(free, id) {
				return fmt.Errorf("switch %d holds group %d slot %d as %v in slot %d (held before: %v, free: %v)", id, g, slot, sw.Role, sw.Slot, held[id], free)
			}
			held[id] = true
		}
	}
	return nw.CheckInvariants()
}

// seededReplica is one cluster member of replicaRun: a consensus core and
// the state it applies to.
type seededReplica struct {
	raft *ctlplane.Raft
	st   *replicaState
	// applied is the index of the last entry applied or installed, checked
	// the one the last check saw, compacted the last compaction's.
	applied, checked, compacted uint64
}

// appliedRecovery is a recovery as first applied: its log index, the
// applier's term then, its position in the controller's recovery log, and
// its digest.
type appliedRecovery struct {
	index, term uint64
	ordinal     int
	digest      string
}

// replicaCluster is ctlplane's deterministic harness (raft_test.go's cluster:
// a message pool, explicit ticks and deliveries, no goroutines, no clock)
// with every member applying what commits to its own replicaState, and every
// map iteration replaced by ID order so a seed fixes the whole run.
type replicaCluster struct {
	reps     []*seededReplica
	inflight []ctlplane.Message
	cut      map[[2]int]bool
	// snapshots counts Ready.Snapshot installs.
	snapshots int
	// at holds the first Snapshot() and stateDigest seen at each applied
	// index, and which replica showed them.
	at map[uint64]seenState
	// recs lists every applied recovery, first application only.
	recs    []appliedRecovery
	recAt   map[uint64]bool
	nextCmd func() []byte
}

type seenState struct {
	snap    []byte
	digest  string
	recs    []controller.Recovery
	replica int
}

// replicaCompactEvery is how many applied entries a member takes between
// compactions: small, so lagging members catch up by snapshot.
const replicaCompactEvery = 4

// pump drains every member's Ready: messages into the pool, a snapshot
// through Restore, committed entries through Apply, then compaction.
func (c *replicaCluster) pump() error {
	for i, r := range c.reps {
		for r.raft.HasReady() {
			rd := r.raft.Ready()
			c.inflight = append(c.inflight, rd.Messages...)
			if rd.Snapshot != nil {
				if err := r.st.Restore(rd.Snapshot.Data); err != nil {
					return fmt.Errorf("replica %d: restoring the snapshot at %d: %v", i, rd.Snapshot.LastIndex, err)
				}
				r.applied = rd.Snapshot.LastIndex
				c.snapshots++
			}
			for _, e := range rd.Committed {
				_, rec, err := r.st.Apply(e.Data)
				if err != nil && !errors.As(err, new(refused)) {
					return fmt.Errorf("replica %d: applying entry %d: %v", i, e.Index, err)
				}
				r.applied = e.Index
				if rec != nil && !c.recAt[e.Index] {
					c.recAt[e.Index] = true
					c.recs = append(c.recs, appliedRecovery{index: e.Index, term: r.raft.Term(), ordinal: len(r.st.ctl.Recoveries()) - 1, digest: recoveryDigest(rec)})
				}
			}
			if r.applied >= r.compacted+replicaCompactEvery {
				if err := r.raft.Compact(r.applied, r.st.Snapshot()); err != nil {
					return fmt.Errorf("replica %d: %v", i, err)
				}
				r.compacted = r.applied
			}
		}
	}
	return nil
}

// deliver steps m into its addressee unless the link is cut.
func (c *replicaCluster) deliver(m ctlplane.Message) error {
	if c.cut[[2]int{m.From, m.To}] {
		return nil
	}
	c.reps[m.To].raft.Step(m)
	return c.pump()
}

// tickAll ticks every member, then delivers until the pool is empty. Members
// that keep answering each other without end fail the run by name.
func (c *replicaCluster) tickAll() error {
	for _, r := range c.reps {
		r.raft.Tick()
	}
	if err := c.pump(); err != nil {
		return err
	}
	for n := 0; len(c.inflight) > 0; n++ {
		m := c.inflight[0]
		c.inflight = c.inflight[1:]
		if n == 100_000 {
			return fmt.Errorf("livelock: %d messages delivered after one tick, and %v %d->%d still in flight", n, m.Type, m.From, m.To)
		}
		if err := c.deliver(m); err != nil {
			return err
		}
	}
	return nil
}

// leader returns the member leading the highest term, or nil.
func (c *replicaCluster) leader() *seededReplica {
	var ld *seededReplica
	for _, r := range c.reps {
		if r.raft.State() == ctlplane.Leader && (ld == nil || r.raft.Term() > ld.raft.Term()) {
			ld = r
		}
	}
	return ld
}

// check asserts the replicated controller's invariants on the members whose
// applied index moved: replicas at one applied index hold byte-equal
// snapshots, equal states and deep-equal recovery records, and no backup
// holds two positions. Then every
// leader holds every recovery applied at or below its term: in its log and,
// once it applied that far, in its controller.
func (c *replicaCluster) check() error {
	for i, r := range c.reps {
		if r.applied == r.checked {
			continue
		}
		r.checked = r.applied
		snap, digest, recs := r.st.Snapshot(), stateDigest(r.st), slices.Clone(r.st.ctl.Recoveries())
		if prev, ok := c.at[r.applied]; !ok {
			c.at[r.applied] = seenState{snap, digest, recs, i}
		} else if !bytes.Equal(prev.snap, snap) || prev.digest != digest {
			return fmt.Errorf("replicas %d and %d differ at applied index %d:\n%s\n%s\n--- vs ---\n%s\n%s", prev.replica, i, r.applied, prev.snap, prev.digest, snap, digest)
		} else if !reflect.DeepEqual(prev.recs, recs) {
			return fmt.Errorf("replicas %d and %d record different recoveries at applied index %d:\n%+v\n--- vs ---\n%+v", prev.replica, i, r.applied, prev.recs, recs)
		}
		if err := checkPositions(r.st); err != nil {
			return fmt.Errorf("replica %d at applied index %d: %v", i, r.applied, err)
		}
	}
	for i, r := range c.reps {
		if r.raft.State() != ctlplane.Leader {
			continue
		}
		recs := r.st.ctl.Recoveries()
		for _, ar := range c.recs {
			switch {
			case r.raft.Term() < ar.term:
			case r.raft.LastIndex() < ar.index:
				return fmt.Errorf("leader %d of term %d ends its log at %d, before entry %d, a recovery applied in term %d", i, r.raft.Term(), r.raft.LastIndex(), ar.index, ar.term)
			case r.applied >= ar.index && (ar.ordinal >= len(recs) || recoveryDigest(&recs[ar.ordinal]) != ar.digest):
				return fmt.Errorf("leader %d of term %d applied entry %d without its recovery %q", i, r.raft.Term(), ar.index, ar.digest)
			}
		}
	}
	return nil
}

// replicaRunStats is what one replicaRun reached.
type replicaRunStats struct {
	snapshots int  // Ready.Snapshot installs
	halted    bool // every replica ended in the §5.1 halt
}

// replicaRun drives 3–5 consensus cores, each applying to its own
// replicaState, through `steps` seeded operations — fuzzRun's mix of
// directed link cuts, heals, message drops, ticks and deliveries, with the
// leader proposing cmdGen's recoveries — and checks the invariants after
// every step. Then it heals, lets a leader commit one more command, waits
// until every replica applied it, and checks that all agree, the halt
// included. Seeds vary the cluster size and n ∈ {1, 2}; odd seeds start with
// replica 0 cut off, as in fuzzRun. Deterministic for a given (seed, steps),
// which the shrink loop relies on.
func replicaRun(seed uint64, steps int) (replicaRunStats, error) {
	rng := splitmix(seed)
	size, n := 3+int(seed%3), 1+int(seed/3%2)
	peers := make([]int, size)
	for i := range peers {
		peers[i] = i
	}
	c := &replicaCluster{cut: map[[2]int]bool{}, at: map[uint64]seenState{}, recAt: map[uint64]bool{}}
	for id := range peers {
		st, err := newTestReplica(n)
		if err != nil {
			return replicaRunStats{}, err
		}
		c.reps = append(c.reps, &seededReplica{raft: ctlplane.NewRaft(ctlplane.RaftConfig{ID: id, Peers: peers, Seed: seed + uint64(id)*977}), st: st})
	}
	c.nextCmd = newCmdGen(&rng, c.reps[0].st.ctl.Network()).next
	if seed%2 == 1 {
		for id := 1; id < size; id++ {
			c.cut[[2]int{0, id}], c.cut[[2]int{id, 0}] = true, true
		}
	}
	for step := 0; step < steps; step++ {
		var err error
		switch op := rng.next(100); {
		case op < 4: // cut one directed link
			c.cut[[2]int{int(rng.next(uint64(size))), int(rng.next(uint64(size)))}] = true
		case op < 6: // heal everything
			clear(c.cut)
		case op < 9: // drop one in-flight message
			if len(c.inflight) > 0 {
				i := int(rng.next(uint64(len(c.inflight))))
				c.inflight = slices.Delete(c.inflight, i, i+1)
			}
		case op < 14: // the leader proposes
			if ld := c.leader(); ld != nil {
				ld.raft.Propose(c.nextCmd())
				err = c.pump()
			}
		case rng.next(2) == 0: // tick one member
			c.reps[rng.next(uint64(size))].raft.Tick()
			err = c.pump()
		case len(c.inflight) > 0: // deliver one in-flight message
			i := int(rng.next(uint64(len(c.inflight))))
			m := c.inflight[i]
			c.inflight = slices.Delete(c.inflight, i, i+1)
			err = c.deliver(m)
		}
		if err == nil {
			err = c.check()
		}
		if err != nil {
			return replicaRunStats{}, fmt.Errorf("step %d: %v", step, err)
		}
	}
	return c.settle()
}

// settle heals every link and ticks until a leader has committed a command of
// its own term that every replica applied, then checks that they agree.
func (c *replicaCluster) settle() (replicaRunStats, error) {
	clear(c.cut)
	var term, final uint64
	for round := 0; round < 500; round++ {
		if err := c.tickAll(); err != nil {
			return replicaRunStats{}, fmt.Errorf("settling: %v", err)
		}
		if err := c.check(); err != nil {
			return replicaRunStats{}, fmt.Errorf("settling: %v", err)
		}
		ld := c.leader()
		if ld == nil {
			continue
		}
		if ld.raft.Term() != term {
			term = ld.raft.Term()
			final, _, _ = ld.raft.Propose(c.nextCmd())
			continue
		}
		done := ld.raft.Commit() >= final
		for _, r := range c.reps {
			done = done && r.applied == ld.raft.Commit()
		}
		if !done {
			continue
		}
		halted := ld.st.ctl.Halted()
		for i, r := range c.reps {
			if r.st.ctl.Halted() != halted {
				return replicaRunStats{}, fmt.Errorf("settled replicas disagree on the halt: replica %d %v, the leader %v", i, !halted, halted)
			}
		}
		return replicaRunStats{snapshots: c.snapshots, halted: halted}, nil
	}
	return replicaRunStats{}, fmt.Errorf("no leader committed a command every replica applied in 500 healed rounds")
}

// TestReplicaStateUnderPartitionFuzz is the replicated controller's seeded
// property test: 50 seeds of 1 000 steps each (replicaRun). On failure it
// shrinks to the shortest failing prefix of the seed's op stream, as
// ctlplane's TestElectionSafetyUnderPartitionFuzz does. Some seed must
// install a snapshot through Ready.Snapshot, and some must reach the §5.1
// circuit-switch halt, so both paths are exercised rather than assumed.
func TestReplicaStateUnderPartitionFuzz(t *testing.T) {
	const seeds, steps = 50, 1000
	snapshotted, halted := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		st, err := replicaRun(seed, steps)
		if err != nil {
			lo, hi := 1, steps
			for lo < hi {
				mid := (lo + hi) / 2
				if _, err := replicaRun(seed, mid); err != nil {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			_, minErr := replicaRun(seed, lo)
			t.Fatalf("seed %d: %v\nminimal reproducer: replicaRun(seed=%d, steps=%d): %v", seed, err, seed, lo, minErr)
		}
		if st.snapshots > 0 {
			snapshotted++
		}
		if st.halted {
			halted++
		}
	}
	t.Logf("%d of %d seeds installed a snapshot, %d halted", snapshotted, seeds, halted)
	if snapshotted == 0 {
		t.Error("no seed installed a snapshot through Ready.Snapshot")
	}
	if halted == 0 {
		t.Error("no seed reached the circuit-switch halt")
	}
}

// TestRestoreMatchesReplay checks Restore against plain replay on seeded
// command sequences (k=4, n ∈ {1, 2}): a fresh replica restored from another
// replica's snapshot at a random prefix, then fed the tail, ends byte-equal
// in Snapshot() and equal in state; restoring any snapshot no longer than
// its own history then changes nothing.
func TestRestoreMatchesReplay(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := splitmix(seed)
		n := 1 + int(seed%2)
		a, err := newTestReplica(n)
		if err != nil {
			t.Fatal(err)
		}
		next := newCmdGen(&rng, a.ctl.Network()).next
		snaps := [][]byte{a.Snapshot()}
		var cmds [][]byte
		for range 30 {
			cmds = append(cmds, next())
			if _, _, err := a.Apply(cmds[len(cmds)-1]); err != nil && !errors.As(err, new(refused)) {
				t.Fatal(err)
			}
			snaps = append(snaps, a.Snapshot())
		}
		want, wantDigest := a.Snapshot(), stateDigest(a)
		p := int(rng.next(uint64(len(snaps))))
		b, err := newTestReplica(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Restore(snaps[p]); err != nil {
			t.Fatal(err)
		}
		for _, cmd := range cmds[p:] {
			b.Apply(cmd) //nolint:errcheck // refusals are part of the history
		}
		if got := b.Snapshot(); !bytes.Equal(got, want) || stateDigest(b) != wantDigest {
			t.Fatalf("seed %d: restored at %d of %d, then fed the tail: state\n%s\nwant\n%s", seed, p, len(cmds), stateDigest(b), wantDigest)
		}
		q := int(rng.next(uint64(len(snaps))))
		if err := b.Restore(snaps[q]); err != nil {
			t.Fatal(err)
		}
		if got := b.Snapshot(); !bytes.Equal(got, want) || stateDigest(b) != wantDigest {
			t.Fatalf("seed %d: restoring the %d-command snapshot over %d applied commands changed the state", seed, q, len(cmds))
		}
	}
}

// TestDuplicateLinkReportIsANoOp: a link report resent after its first copy
// committed, but before that copy applied on the leader taking the resend,
// commits twice. The second copy finds both ends off active duty and applies
// as the success it is — the recovery it asks for is done — with no second
// recovery, no circuit-switch charge and no backup sought.
func TestDuplicateLinkReportIsANoOp(t *testing.T) {
	r, err := newTestReplica(1)
	if err != nil {
		t.Fatal(err)
	}
	nw := r.ctl.Network()
	cmd := ctlplane.Command{
		Kind:    ctlplane.CmdRecoverLink,
		ASwitch: int32(nw.EdgeGroup(0).Slots()[0]), APort: 2,
		BSwitch: int32(nw.AggGroup(0).Slots()[0]), BPort: 0,
		AtNS: int64(time.Millisecond),
	}.Encode()
	for i := 1; i <= 2; i++ {
		if _, _, err := r.Apply(cmd); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
	}
	if n := len(r.ctl.Recoveries()); n != 1 {
		t.Errorf("two copies of one report recorded %d recoveries, want 1", n)
	}
	if n := r.ctl.Metrics().Counter("controller.backup_pool_exhausted").Value(); n != 0 {
		t.Errorf("controller.backup_pool_exhausted = %d, want 0", n)
	}
}
