// Package ctlnet puts ShareBackup's control plane on real sockets: switch
// agents speak a compact length-prefixed binary protocol over TCP to a
// controller server, which detects missed keep-alives, drives failover on
// the underlying sbnet.Network through the controller package, and publishes
// recovery events to subscribers. The paper argues (Section 5.3) that with
// an efficient controller implementation the switch-to-controller and
// controller-to-circuit-switch communication stays sub-millisecond; this
// package is the measurable stand-in for that claim — the loopback demo and
// tests time the detection-to-reconfiguration path end to end.
package ctlnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// Message types: one namespace for every session — agent, monitor and
// circuit switch — and one frame per request. A retired number is never
// reused: the server skips it as an unknown type (counted in
// ctlnet.unknown_msgs) and a circuit-switch service answers it with
// msgCSErr.
const (
	msgHello byte = 1 // agent -> server: uint32 switch ID
	// 2 is retired (the single keep-alive): an agent sends a
	// msgKeepAliveBatch of one. 3 is retired (the untraced link report):
	// msgLinkFail carries a zero trace context instead.
	msgSubscribe byte = 4 // monitor -> server: empty
	msgRecovery  byte = 5 // server -> monitor: recovery event
	msgSubAck    byte = 6 // server -> monitor: subscription registered
	msgTableLoad byte = 7 // server -> agent: preloaded failure-group table (§4.3)
	// 8 and 9 are retired (a wire registry dump and its reply): debughttp's
	// /varz serves the registry.
	// 10 and 11 are retired (a clock-sync probe and its ack): every
	// emulated process stamps the one process epoch (obs.Now).

	// msgLinkFail reports a failed link by both of its interfaces (§4.1),
	// with a trace context (the reporting agent's root span; zero when the
	// agent is not tracing) and the agent-measured detection latency (zero
	// for the controller's default), so the controller's recovery joins the
	// agent's causal trace.
	msgLinkFail byte = 12 // agent -> server: context, int64 detection, 4 × uint32

	// 13 and 14 are retired (a time-series query and its reply).

	// Replicated-controller cluster messages (§5.1). A replica that is not
	// the current leader answers state-mutating requests (hello, link-fail
	// reports) — and, rate-limited, keep-alives — with msgNotLeader carrying
	// its best guess at the leader's serving address so agents can redirect.
	// A cluster of one always leads.
	msgNotLeader  byte = 15 // server -> agent: leader serving address (may be empty)
	msgLeaderReq  byte = 16 // agent -> server: empty — ask who leads
	msgLeaderInfo byte = 17 // server -> agent: byte isLeader, leader serving address
	// msgReportAck closes the loop on a link report whose command was
	// applied: status 0 = recovered (or a duplicate of a completed
	// recovery), 1 = refused (no backup left, controller halted, ...). A
	// refusal is final. A report that never committed (leadership lost,
	// consensus timed out) is answered with msgNotLeader instead, and the
	// agent resends it to whoever leads.
	msgReportAck byte = 18 // server -> agent: byte status

	// msgKeepAliveBatch carries keep-alives: uint16 count, then count ×
	// (uint32 switch ID, uint64 seq). An Agent sends a batch of one per
	// tick; an AgentGroup coalesces its co-located agents' into one frame —
	// one syscall, one decode on the server, the fleet-scale ingest format.
	msgKeepAliveBatch byte = 19 // agent -> server: (id, seq) pairs

	// Circuit-switch session (csagent.go). 16–19 were this session's own
	// numbers before it joined the shared table; a service answers them
	// with msgCSErr like any other type it does not serve.
	msgCSReconfig byte = 20 // controller -> circuit switch: context, batch of circuit changes
	msgCSAck      byte = 21 // circuit switch -> controller: int64 reconfiguration delay ns
	msgCSErr      byte = 22 // circuit switch -> controller: error text
)

// maxFrame bounds frame sizes; control messages are tiny.
const maxFrame = 64 * 1024

// writeFrame writes a length-prefixed frame: uint32 length, byte type,
// payload. Header and payload go out in a single Write so two goroutines
// writing different frames to the same connection can never interleave a
// header with a foreign payload (net.Conn serializes each Write call).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("ctlnet: frame too large (%d bytes)", len(payload)+1)
	}
	buf := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)+1))
	buf[4] = typ
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// appendFrame appends a complete frame to dst — the zero-extra-Write path
// for senders that batch several frames into one syscall (AgentGroup).
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads one frame with a buffer of its own, for one-shot reads.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return (&frameReader{r: r}).next()
}

// frameReader reads frames into a reusable scratch buffer. The returned
// payload aliases the buffer and is valid only until the next call — for
// read loops whose handlers decode (and copy what escapes) before the next
// frame, it removes the per-frame allocation of readFrame.
type frameReader struct {
	r   io.Reader
	buf []byte
}

func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	if cap(fr.buf) < 4 {
		fr.buf = make([]byte, 0, 512)
	}
	hdr := fr.buf[:4]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("ctlnet: bad frame length %d", n)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, 0, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

func encodeHello(id sbnet.SwitchID) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(id))
	return b[:]
}

func decodeHello(p []byte) (sbnet.SwitchID, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("ctlnet: hello payload %d bytes, want 4", len(p))
	}
	return sbnet.SwitchID(binary.BigEndian.Uint32(p)), nil
}

// Keep-alive batch payload: uint16 count, then count kaPairSize-byte
// (uint32 id, uint64 seq) records. maxKAPairs is what fits one frame.
const (
	kaPairSize = 12
	maxKAPairs = (maxFrame - 1 - 2) / kaPairSize
)

// appendKeepAliveBatch appends a batch payload for ids[from:to) at seq.
func appendKeepAliveBatch(dst []byte, ids []sbnet.SwitchID, seq uint64) []byte {
	var cnt [2]byte
	binary.BigEndian.PutUint16(cnt[:], uint16(len(ids)))
	dst = append(dst, cnt[:]...)
	for _, id := range ids {
		var rec [kaPairSize]byte
		binary.BigEndian.PutUint32(rec[:4], uint32(id))
		binary.BigEndian.PutUint64(rec[4:], seq)
		dst = append(dst, rec[:]...)
	}
	return dst
}

// kaBatchCount validates a batch payload's shape and returns its pair count.
func kaBatchCount(p []byte) (int, error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("ctlnet: keepalive batch payload %d bytes, want >= 2", len(p))
	}
	n := int(binary.BigEndian.Uint16(p[:2]))
	if len(p) != 2+n*kaPairSize {
		return 0, fmt.Errorf("ctlnet: keepalive batch promises %d pairs, payload %d bytes", n, len(p))
	}
	return n, nil
}

// kaBatchPair returns pair i of a payload kaBatchCount already validated.
func kaBatchPair(p []byte, i int) (sbnet.SwitchID, uint64) {
	rec := p[2+i*kaPairSize:]
	return sbnet.SwitchID(binary.BigEndian.Uint32(rec[:4])), binary.BigEndian.Uint64(rec[4:kaPairSize])
}

// appendTraceContext appends trace(8) span(8) procLen(1) proc.
func appendTraceContext(b []byte, ctx obs.TraceContext) []byte {
	var v [16]byte
	binary.BigEndian.PutUint64(v[:8], ctx.Trace)
	binary.BigEndian.PutUint64(v[8:], ctx.Span)
	b = append(b, v[:]...)
	proc := ctx.Proc
	if len(proc) > 255 {
		proc = proc[:255]
	}
	b = append(b, byte(len(proc)))
	return append(b, proc...)
}

// readTraceContext consumes a trace context, returning the remainder.
func readTraceContext(p []byte) (obs.TraceContext, []byte, error) {
	if len(p) < 17 {
		return obs.TraceContext{}, nil, fmt.Errorf("ctlnet: truncated trace context (%d bytes)", len(p))
	}
	ctx := obs.TraceContext{
		Trace: binary.BigEndian.Uint64(p[:8]),
		Span:  binary.BigEndian.Uint64(p[8:16]),
	}
	n := int(p[16])
	if len(p) < 17+n {
		return obs.TraceContext{}, nil, fmt.Errorf("ctlnet: trace context proc truncated")
	}
	ctx.Proc = string(p[17 : 17+n])
	return ctx, p[17+n:], nil
}

func encodeLinkFail(ctx obs.TraceContext, detection time.Duration, aSw sbnet.SwitchID, aPort int, bSw sbnet.SwitchID, bPort int) []byte {
	b := appendTraceContext(make([]byte, 0, 17+len(ctx.Proc)+8+16), ctx)
	var v [8 + 16]byte
	binary.BigEndian.PutUint64(v[0:8], uint64(detection))
	binary.BigEndian.PutUint32(v[8:12], uint32(aSw))
	binary.BigEndian.PutUint32(v[12:16], uint32(aPort))
	binary.BigEndian.PutUint32(v[16:20], uint32(bSw))
	binary.BigEndian.PutUint32(v[20:24], uint32(bPort))
	return append(b, v[:]...)
}

func decodeLinkFail(p []byte) (ctx obs.TraceContext, detection time.Duration, aSw sbnet.SwitchID, aPort int, bSw sbnet.SwitchID, bPort int, err error) {
	ctx, rest, err := readTraceContext(p)
	if err != nil {
		return ctx, 0, 0, 0, 0, 0, err
	}
	if len(rest) != 8+16 {
		return ctx, 0, 0, 0, 0, 0, fmt.Errorf("ctlnet: linkfail payload %d bytes after context, want 24", len(rest))
	}
	return ctx, time.Duration(binary.BigEndian.Uint64(rest[0:8])),
		sbnet.SwitchID(binary.BigEndian.Uint32(rest[8:12])), int(int32(binary.BigEndian.Uint32(rest[12:16]))),
		sbnet.SwitchID(binary.BigEndian.Uint32(rest[16:20])), int(int32(binary.BigEndian.Uint32(rest[20:24]))), nil
}

func encodeLeaderInfo(isLeader bool, addr string) []byte {
	b := make([]byte, 1, 1+len(addr))
	if isLeader {
		b[0] = 1
	}
	return append(b, addr...)
}

func decodeLeaderInfo(p []byte) (isLeader bool, addr string, err error) {
	if len(p) < 1 {
		return false, "", fmt.Errorf("ctlnet: leader info payload empty")
	}
	if p[0] > 1 {
		return false, "", fmt.Errorf("ctlnet: leader info flag %d, want 0 or 1", p[0])
	}
	return p[0] == 1, string(p[1:]), nil
}

// Report-ack statuses.
const (
	reportAckOK      byte = 0
	reportAckRefused byte = 1
)

func encodeReportAck(status byte) []byte { return []byte{status} }

func decodeReportAck(p []byte) (byte, error) {
	if len(p) != 1 {
		return 0, fmt.Errorf("ctlnet: report ack payload %d bytes, want 1", len(p))
	}
	return p[0], nil
}

// RecoveryEvent is the server's notification of a completed failover.
type RecoveryEvent struct {
	Kind    string // "node" or "link"
	Failed  []sbnet.SwitchID
	Backup  []sbnet.SwitchID
	Latency time.Duration // wall-clock detection-to-reconfigured latency
}

func encodeRecovery(ev RecoveryEvent) []byte {
	kind := byte(0)
	if ev.Kind == "link" {
		kind = 1
	}
	b := make([]byte, 0, 1+4+4*len(ev.Failed)+4+4*len(ev.Backup)+8)
	b = append(b, kind)
	b = appendIDs(b, ev.Failed)
	b = appendIDs(b, ev.Backup)
	var lat [8]byte
	binary.BigEndian.PutUint64(lat[:], uint64(ev.Latency))
	return append(b, lat[:]...)
}

func appendIDs(b []byte, ids []sbnet.SwitchID) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(ids)))
	b = append(b, n[:]...)
	for _, id := range ids {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], uint32(id))
		b = append(b, v[:]...)
	}
	return b
}

func decodeRecovery(p []byte) (RecoveryEvent, error) {
	var ev RecoveryEvent
	if len(p) < 1+4 {
		return ev, fmt.Errorf("ctlnet: recovery payload too short")
	}
	switch p[0] {
	case 0:
		ev.Kind = "node"
	case 1:
		ev.Kind = "link"
	default:
		return ev, fmt.Errorf("ctlnet: recovery kind %d, want 0 (node) or 1 (link)", p[0])
	}
	rest := p[1:]
	var err error
	ev.Failed, rest, err = readIDs(rest)
	if err != nil {
		return ev, err
	}
	ev.Backup, rest, err = readIDs(rest)
	if err != nil {
		return ev, err
	}
	if len(rest) != 8 {
		return ev, fmt.Errorf("ctlnet: recovery payload trailing %d bytes", len(rest))
	}
	ev.Latency = time.Duration(binary.BigEndian.Uint64(rest))
	return ev, nil
}

func readIDs(p []byte) ([]sbnet.SwitchID, []byte, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("ctlnet: truncated ID list")
	}
	n := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	// In 64 bits: n*4 in uint32 wraps for n >= 2^30 and would pass.
	if uint64(len(p)) < uint64(n)*4 {
		return nil, nil, fmt.Errorf("ctlnet: ID list promises %d entries, %d bytes left", n, len(p))
	}
	ids := make([]sbnet.SwitchID, n)
	for i := range ids {
		ids[i] = sbnet.SwitchID(binary.BigEndian.Uint32(p[:4]))
		p = p[4:]
	}
	return ids, p, nil
}
