package ctlnet

import (
	"bytes"
	"fmt"
	"testing"

	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// FuzzWireDecode feeds arbitrary bytes to every wire.go decoder: data[0]
// picks the payload decoder by message type and data[1:] is its payload,
// while the whole input is also read as a frame stream. It checks that
// nothing panics, and that whatever a decoder accepts re-encodes to exactly
// the bytes it was given — so no two encodings decode to one message. The
// committed corpus holds one reproducer per fixed decoder bug.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range [][]byte{
		append([]byte{msgHello}, encodeHello(42)...),
		append([]byte{msgKeepAlive}, encodeKeepAlive(7, 99)...),
		append([]byte{msgKeepAliveBatch}, appendKeepAliveBatch(nil, []sbnet.SwitchID{1, 2, 3}, 5)...),
		append([]byte{msgLinkFail}, encodeLinkFail(1, 5, 2, 0)...),
		append([]byte{msgLinkFailTraced}, encodeLinkFailTraced(obs.TraceContext{Trace: 9, Span: 3, Proc: "agent-1"}, 60e6, 1, 5, 2, 0)...),
		append([]byte{msgClockSync}, encodeClockSync(123)...),
		append([]byte{msgClockSyncAck}, encodeClockSyncAck(123, 456, "server")...),
		append([]byte{msgLeaderInfo}, encodeLeaderInfo(true, "127.0.0.1:7000")...),
		append([]byte{msgReportAck}, encodeReportAck(reportAckFailed)...),
		append([]byte{msgRecovery}, encodeRecovery(RecoveryEvent{Kind: "link", Failed: []sbnet.SwitchID{4, 5}, Backup: []sbnet.SwitchID{8, 9}, Latency: 1500})...),
		appendFrame(appendFrame(nil, msgHello, encodeHello(1)), msgSubscribe, nil),
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

// checkFrames reads data as a frame stream with both readers: they must
// agree frame for frame, and each frame must re-encode to the bytes it was
// read from.
func checkFrames(data []byte) error {
	fr := &frameReader{r: bytes.NewReader(data)}
	plain := bytes.NewReader(data)
	off := 0
	for {
		typ, payload, err := fr.next()
		ptyp, ppayload, perr := readFrame(plain)
		if (err == nil) != (perr == nil) || typ != ptyp || !bytes.Equal(payload, ppayload) {
			return fmt.Errorf("frame at %d: frameReader (%d, %x, %v) != readFrame (%d, %x, %v)",
				off, typ, payload, err, ptyp, ppayload, perr)
		}
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
	case msgKeepAlive:
		id, seq, err := decodeKeepAlive(p)
		if err != nil {
			return nil
		}
		enc = encodeKeepAlive(id, seq)
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
		a, ap, b, bp, err := decodeLinkFail(p)
		if err != nil {
			return nil
		}
		enc = encodeLinkFail(a, ap, b, bp)
	case msgLinkFailTraced:
		ctx, det, a, ap, b, bp, err := decodeLinkFailTraced(p)
		if err != nil {
			return nil
		}
		enc = encodeLinkFailTraced(ctx, det, a, ap, b, bp)
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
	default:
		return nil
	}
	if !bytes.Equal(enc, p) {
		return fmt.Errorf("type %d payload %x re-encodes to %x", typ, p, enc)
	}
	return nil
}
