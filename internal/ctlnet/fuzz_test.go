package ctlnet

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// FuzzWireDecode feeds arbitrary bytes to every payload decoder of the one
// message table — the agent and monitor sessions' (wire.go) and the
// circuit-switch session's (csagent.go): data[0] picks the decoder by
// message type and data[1:] is its payload, while the whole input is also
// read as a frame stream. It checks that nothing panics, and that whatever
// a decoder accepts re-encodes to exactly the bytes it was given — so no two
// encodings decode to one message. The committed corpus holds one
// reproducer per fixed decoder bug.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range [][]byte{
		append([]byte{msgHello}, encodeHello(42)...),
		append([]byte{msgCSAck}, encodeCSAck(70)...),
		append([]byte{msgKeepAliveBatch}, appendKeepAliveBatch(nil, []sbnet.SwitchID{1, 2, 3}, 5)...),
		append([]byte{msgLinkFail}, encodeLinkFail(obs.TraceContext{}, 0, 1, 5, 2, 0)...),
		append([]byte{msgLinkFail}, encodeLinkFail(obs.TraceContext{Trace: 9, Span: 3, Proc: "agent-1"}, 60e6, 1, 5, 2, 0)...),
		append([]byte{msgClockSync}, encodeClockSync(123)...),
		append([]byte{msgClockSyncAck}, encodeClockSyncAck(123, 456, "server")...),
		append([]byte{msgLeaderInfo}, encodeLeaderInfo(true, "127.0.0.1:7000")...),
		append([]byte{msgReportAck}, encodeReportAck(reportAckRefused)...),
		append([]byte{msgRecovery}, encodeRecovery(RecoveryEvent{Kind: "link", Failed: []sbnet.SwitchID{4, 5}, Backup: []sbnet.SwitchID{8, 9}, Latency: 1500})...),
		appendFrame(appendFrame(nil, msgHello, encodeHello(1)), msgSubscribe, nil),
		append([]byte{msgCSReconfig}, encodeCSReconfig(obs.TraceContext{}, []circuit.Change{{A: 0, B: 1}})...),
		append([]byte{msgCSReconfig}, encodeCSReconfig(obs.TraceContext{Trace: 4, Span: 1, Proc: "controller"}, []circuit.Change{{A: 2, B: circuit.Unconnected}, {A: 3, B: 3}})...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkFrames(data); err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		if err := checkPayload(data[0], data[1:]); err != nil {
			t.Fatal(err)
		}
	})
}

// checkFrames reads data as a frame stream: each frame must re-encode to
// the bytes it was read from.
func checkFrames(data []byte) error {
	fr := &frameReader{r: bytes.NewReader(data)}
	off := 0
	for {
		typ, payload, err := fr.next()
		if err != nil {
			return nil
		}
		enc := appendFrame(nil, typ, payload)
		if !bytes.Equal(enc, data[off:off+len(enc)]) {
			return fmt.Errorf("frame at %d re-encodes to %x, read from %x", off, enc, data[off:off+len(enc)])
		}
		off += len(enc)
	}
}

// checkPayload decodes p as a payload of message type typ and re-encodes
// whatever the decoder accepts.
func checkPayload(typ byte, p []byte) error {
	var enc []byte
	switch typ {
	case msgHello:
		id, err := decodeHello(p)
		if err != nil {
			return nil
		}
		enc = encodeHello(id)
	case msgKeepAliveBatch:
		n, err := kaBatchCount(p)
		if err != nil {
			return nil
		}
		// The encoder stamps one seq on every pair; the decoder takes
		// each pair's own, so re-encode pair by pair.
		enc = append([]byte(nil), p[:2]...)
		for i := 0; i < n; i++ {
			id, seq := kaBatchPair(p, i)
			enc = append(enc, appendKeepAliveBatch(nil, []sbnet.SwitchID{id}, seq)[2:]...)
		}
	case msgLinkFail:
		ctx, det, a, ap, b, bp, err := decodeLinkFail(p)
		if err != nil {
			return nil
		}
		enc = encodeLinkFail(ctx, det, a, ap, b, bp)
	case msgClockSync:
		t1, err := decodeClockSync(p)
		if err != nil {
			return nil
		}
		enc = encodeClockSync(t1)
	case msgClockSyncAck:
		t1, t2, proc, err := decodeClockSyncAck(p)
		if err != nil {
			return nil
		}
		enc = encodeClockSyncAck(t1, t2, proc)
	case msgLeaderInfo:
		leader, addr, err := decodeLeaderInfo(p)
		if err != nil {
			return nil
		}
		enc = encodeLeaderInfo(leader, addr)
	case msgReportAck:
		status, err := decodeReportAck(p)
		if err != nil {
			return nil
		}
		enc = encodeReportAck(status)
	case msgRecovery:
		ev, err := decodeRecovery(p)
		if err != nil {
			return nil
		}
		enc = encodeRecovery(ev)
	case msgCSReconfig:
		ctx, changes, err := decodeCSReconfig(p)
		if err != nil {
			return nil
		}
		enc = encodeCSReconfig(ctx, changes)
	case msgCSAck:
		d, err := decodeCSAck(p)
		if err != nil {
			return nil
		}
		enc = encodeCSAck(d)
	default:
		return nil
	}
	if !bytes.Equal(enc, p) {
		return fmt.Errorf("type %d payload %x re-encodes to %x", typ, p, enc)
	}
	return nil
}

// FuzzRestoreState feeds arbitrary bytes to Server.RestoreState on a fresh
// replica — a snapshot shipped by a peer or read back from disk. It checks
// that nothing panics, whatever ctlplane.DecodeReplayLog and DecodeCommand
// accept and however the commands' switches and ports point outside the
// fabric, and that an accepted replay log re-encodes and decodes to itself.
func FuzzRestoreState(f *testing.F) {
	node := ctlplane.Command{Kind: ctlplane.CmdRecoverNode, Switch: 2, LastSeenNS: 1e6, AtNS: 2e6}.Encode()
	link := ctlplane.Command{Kind: ctlplane.CmdRecoverLink, ASwitch: 1, APort: 2, BSwitch: 9, AtNS: 3e6}.Encode()
	f.Add(ctlplane.EncodeReplayLog([][]byte{node, link}))
	f.Add(ctlplane.EncodeReplayLog([][]byte{node, []byte(`{"kind":3,"at_ns":0}`)}))
	f.Add(ctlplane.EncodeReplayLog([][]byte{ctlplane.Command{Kind: ctlplane.CmdRecoverNode, Switch: -1}.Encode()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rl, err := ctlplane.DecodeReplayLog(data)
		if err != nil {
			return
		}
		back, err := ctlplane.DecodeReplayLog(ctlplane.EncodeReplayLog(rl.Commands))
		if err != nil || !slices.EqualFunc(back.Commands, rl.Commands, bytes.Equal) {
			t.Fatalf("replay log %q re-decodes to %q, %v", rl.Commands, back.Commands, err)
		}
		nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{ctl: controller.New(nw, controller.Config{}), bus: &obs.Bus{}}
		srv.RestoreState(data) //nolint:errcheck // only a panic fails
	})
}
