package ctlnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

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
		append([]byte{msgRecovery}, encodeRecovery(RecoveryEvent{Kind: "node", Failed: []sbnet.SwitchID{3}, Backup: []sbnet.SwitchID{7}, Latency: 60e6})...),
		appendFrame(appendFrame(nil, 10, make([]byte, 8)), 11, make([]byte, 16)), // retired types still frame
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

// FuzzHandleFrame feeds each input as a frame stream through the server's
// dispatcher, handleFrame, as one connection's reader would: a cluster of
// one whose connection is a net.Pipe with a drained far end. A handler error
// ends the stream, as it would drop the connection. It checks that nothing
// panics, and that the server still answers msgLeaderReq afterwards. The
// committed corpus holds one reproducer per fixed dispatcher bug.
func FuzzHandleFrame(f *testing.F) {
	for _, seed := range [][]byte{
		appendFrame(nil, msgHello, encodeHello(5)),
		appendFrame(appendFrame(nil, msgHello, encodeHello(40)), msgKeepAliveBatch, appendKeepAliveBatch(nil, []sbnet.SwitchID{40, 2, 1 << 20}, 1)),
		appendFrame(nil, msgLinkFail, encodeLinkFail(obs.TraceContext{}, 0, 1, 5, 2, 0)),
		appendFrame(nil, msgLinkFail, encodeLinkFail(obs.TraceContext{}, 0, -7, 5, 1<<30, 0)),
		appendFrame(appendFrame(nil, msgLeaderReq, nil), msgSubscribe, nil),
		appendFrame(nil, 200, []byte("unknown type")),
	} {
		f.Add(seed)
	}
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		f.Fatal(err)
	}
	ctl := controller.New(nw, controller.Config{ProbeInterval: 5 * time.Millisecond, Metrics: obs.NewRegistry()})
	srv := soloReplica(f, ctl, ServerConfig{Interval: 5 * time.Millisecond, Obs: &obs.Bus{}}).Server
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := &srvConn{conn: drainedPipe(t)}
		fr := &frameReader{r: bytes.NewReader(data)}
		for {
			typ, payload, err := fr.next()
			if err != nil || srv.handleFrame(sc, typ, payload) != nil {
				break
			}
		}
		near, far := net.Pipe()
		defer near.Close()
		defer far.Close()
		go srv.handleFrame(&srvConn{conn: near}, msgLeaderReq, nil) //nolint:errcheck // the reply is checked
		far.SetReadDeadline(time.Now().Add(2 * time.Second))
		typ, payload, err := readFrame(far)
		if err != nil || typ != msgLeaderInfo {
			t.Fatalf("after %x the server answers msgLeaderReq with type %d, %v", data, typ, err)
		}
		if leader, _, err := decodeLeaderInfo(payload); err != nil || !leader {
			t.Fatalf("after %x the server's leader info reads %x", data, payload)
		}
	})
}

// drainedPipe returns the near end of a net.Pipe whose far end discards
// whatever the server writes; both close with the test.
func drainedPipe(t *testing.T) net.Conn {
	near, far := net.Pipe()
	go io.Copy(io.Discard, far) //nolint:errcheck // ends when the pipe closes
	t.Cleanup(func() {
		near.Close()
		far.Close()
	})
	return near
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
		srv := &Server{state: &replicaState{ctl: controller.New(nw, controller.Config{})}}
		srv.RestoreState(data) //nolint:errcheck // only a panic fails
	})
}
