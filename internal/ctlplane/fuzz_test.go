package ctlplane

import (
	"fmt"
	"testing"
)

// Operations of a FuzzRaftStep program. Each is one byte (mod opCount)
// followed by its operands, one byte each; a program that runs out of bytes
// reads zeros.
const (
	opTick       = iota // node: tick one replica
	opTickAll           // tick every replica, in ID order
	opDeliver           // i: deliver in-flight message i (cuts respected)
	opDrop              // i: drop in-flight message i
	opDup               // i: duplicate in-flight message i
	opCut               // a, b: cut a→b, or heal everything when a == b
	opPropose           // data: the leader, if any, proposes one byte
	opInject            // a raw message (see inject) Stepped into one replica
	opDeliverAll        // deliver in flight, in order, until quiet (≤ 1000)
	opCount
)

// FuzzRaftStep drives a 3-replica newCluster with a program decoded from
// the input: ticks, proposals, and delivery, loss, duplication and cuts of
// the replicas' own traffic, interleaved with raw messages such as anyone
// who connects to the consensus listener can send — any type, sender,
// addressee, term, anchor and entries. After every operation it checks:
//
//   - no panic;
//   - every log runs contiguously from snapIndex+1;
//   - commit ≤ LastIndex on every replica;
//   - at most one leader per term.
//
// A granted vote claiming to come from a member is the one message Raft must
// take on trust (its fault model has no lying members, and the listener no
// authentication), so inject never forges one; it forges everything else.
func FuzzRaftStep(f *testing.F) {
	f.Add([]byte{1, opTickAll, opTickAll, opPropose, 'x', opDeliverAll, opTickAll, opTickAll})
	f.Add(append([]byte{2, opCut, 0, 1, opTick, 0},
		injectOp(Message{Type: MsgApp, From: 1, To: 0, Term: 3, Entries: []Entry{{Index: 1, Term: 3}}}, 0)...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := runRaftProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// injectOp encodes m as an opInject aimed at replica target (the inverse of
// inject's decoding, for seeds; fields beyond inject's ranges wrap).
func injectOp(m Message, target int) []byte {
	flags := byte(0)
	if m.Granted {
		flags |= 1
	}
	if m.Success {
		flags |= 2
	}
	b := []byte{opInject, byte(m.Type), byte(m.From + 1), byte(m.To), byte(target), byte(m.Term), flags,
		byte(m.LastLogIndex), byte(m.LastLogTerm), byte(m.PrevIndex), byte(m.PrevTerm), byte(m.Commit),
		byte(m.MatchIndex), byte(m.SnapIndex), byte(m.SnapTerm), byte(len(m.Entries))}
	for _, e := range m.Entries {
		b = append(b, byte(e.Index), byte(e.Term), 0)
	}
	return b
}

func runRaftProgram(prog []byte) error {
	pos := 0
	next := func() byte {
		if pos >= len(prog) {
			pos++
			return 0
		}
		pos++
		return prog[pos-1]
	}
	ids := []int{0, 1, 2}
	c := newCluster(ids, uint64(next())+1)
	pick := func() int { return int(next()) % len(c.inflight) }
	// step delivers one message and collects the recipient's output (the
	// only replica with any, so the pump's map order cannot reorder it).
	step := func(m Message) {
		if c.cut[m.From][m.To] {
			return
		}
		if n, ok := c.nodes[m.To]; ok {
			n.Step(m)
			c.pump()
		}
	}
	leaderOfTerm := make(map[uint64]int)

	for op := 0; pos < len(prog); op++ {
		switch next() % opCount {
		case opTick:
			c.nodes[ids[int(next())%len(ids)]].Tick()
			c.pump()
		case opTickAll:
			for _, id := range ids {
				c.nodes[id].Tick()
				c.pump()
			}
		case opDeliver:
			if len(c.inflight) > 0 {
				i := pick()
				m := c.inflight[i]
				c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
				step(m)
			}
		case opDrop:
			if len(c.inflight) > 0 {
				i := pick()
				c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			}
		case opDup:
			if len(c.inflight) > 0 {
				c.inflight = append(c.inflight, c.inflight[pick()])
			}
		case opCut:
			a, b := ids[int(next())%len(ids)], ids[int(next())%len(ids)]
			if a == b {
				c.heal()
			} else {
				c.cutLink(a, b)
			}
		case opPropose:
			data := []byte{next()}
			if l := c.leader(); l != nil {
				l.Propose(data)
				c.pump()
			}
		case opInject:
			m, target := inject(next)
			c.nodes[ids[target%len(ids)]].Step(m)
			c.pump()
		case opDeliverAll:
			// Bounded: duplicates and forged traffic must not make a
			// program run forever.
			for n := 0; len(c.inflight) > 0 && n < 1000; n++ {
				m := c.inflight[0]
				c.inflight = c.inflight[1:]
				step(m)
			}
		}
		for _, id := range ids {
			r := c.nodes[id]
			for i, e := range r.log {
				if want := r.snapIndex + 1 + uint64(i); e.Index != want {
					return fmt.Errorf("op %d: replica %d log[%d] has index %d, want %d", op, id, i, e.Index, want)
				}
			}
			if r.commit > r.LastIndex() {
				return fmt.Errorf("op %d: replica %d commit %d beyond last index %d", op, id, r.commit, r.LastIndex())
			}
			if r.State() == Leader {
				if prev, ok := leaderOfTerm[r.Term()]; ok && prev != id {
					return fmt.Errorf("op %d: replicas %d and %d both lead term %d", op, prev, id, r.Term())
				}
				leaderOfTerm[r.Term()] = id
			}
		}
	}
	return nil
}

// inject decodes one raw message and the replica (an index into the
// cluster's IDs) that receives it, whatever its To says. Senders range over
// the members 0–2 and the outsiders −1, 3 and 4; addressees over 0–3; terms
// and indices stay small so they land near the cluster's own.
func inject(next func() byte) (Message, int) {
	m := Message{
		Type: MsgType(next() % 8), // 0 and 7 name no type
		From: int(next()%6) - 1,
		To:   int(next() % 4),
	}
	target := int(next())
	m.Term = uint64(next() % 8)
	flags := next()
	m.Granted = flags&1 != 0 && (m.From < 0 || m.From > 2)
	m.Success = flags&2 != 0
	m.LastLogIndex = uint64(next() % 16)
	m.LastLogTerm = uint64(next() % 8)
	m.PrevIndex = uint64(next() % 16)
	m.PrevTerm = uint64(next() % 8)
	m.Commit = uint64(next() % 16)
	m.MatchIndex = uint64(next() % 16)
	m.SnapIndex = uint64(next() % 16)
	m.SnapTerm = uint64(next() % 8)
	for n := next() % 4; n > 0; n-- {
		m.Entries = append(m.Entries, Entry{Index: uint64(next() % 16), Term: uint64(next() % 8), Data: []byte{next()}})
	}
	if m.Type == MsgSnap {
		m.SnapData = []byte{byte(m.SnapIndex)}
	}
	return m, target
}

// FuzzDecodeCommand feeds arbitrary bytes to DecodeCommand, the decoder every
// replica runs on every committed entry and on every snapshot's entries. It
// checks that nothing panics and that whatever it accepts re-encodes and
// decodes to itself.
func FuzzDecodeCommand(f *testing.F) {
	f.Add(Command{Kind: CmdRecoverNode, Switch: 3, LastSeenNS: 1e6, AtNS: 2e6}.Encode())
	f.Add(Command{Kind: CmdRecoverLink, ASwitch: 1, APort: 2, BSwitch: 5, AtNS: 3e6, DetectionNS: 1e6, Trace: 9, Span: 3, Proc: "agent-1"}.Encode())
	f.Add([]byte(`{"kind":3,"at_ns":0,"sub":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCommand(data)
		if err != nil {
			return
		}
		back, err := DecodeCommand(c.Encode())
		if err != nil || back != c {
			t.Fatalf("%q decodes to %+v, which re-decodes to %+v, %v", data, c, back, err)
		}
	})
}
