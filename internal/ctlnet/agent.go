package ctlnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sharebackup/internal/obs"
	"sharebackup/internal/routing"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/tcpserve"
)

// ackRedirected is an agent-local sentinel pushed into the ack channel when a
// session ends (reconnect): a report pending on it will never be acked there,
// so the report loop should resend at once instead of waiting out the ack
// timeout. Never sent on the wire (servers only send reportAckOK/Refused).
const ackRedirected byte = 0xFF

// leaderReplyTimeout bounds a reconnect's dial and leader query to one
// replica, and the first round of an agent's initial dial.
const leaderReplyTimeout = 500 * time.Millisecond

// Agent is a switch-side keep-alive client: it finds the controller replica
// that leads (a cluster of one always does), registers with it, and sends
// periodic keep-alives until stopped, following the leader across failovers.
// Stopping the agent without closing the connection models a crashed
// forwarding engine whose TCP session lingers — exactly the case keep-alive
// detection exists for.
type Agent struct {
	ID sbnet.SwitchID

	// ids are the switches the agent speaks for: ID, the reporting switch,
	// first, then any co-located switches sharing its session (RunFleet's
	// agents). Each gets a hello and a pair in every keep-alive batch.
	ids []sbnet.SwitchID

	conn     net.Conn
	interval time.Duration

	// addrs holds every replica's serving address (one for a cluster of
	// one). gen counts connection generations: each write snapshots
	// (conn, gen) and a failed write triggers reconnect(gen, ...), which is a
	// no-op if another path already replaced that generation.
	addrs []string
	gen   uint64

	// ackCh receives msgReportAck statuses from the read loop so a
	// link-failure report can be resent across a leader failover.
	ackCh chan byte

	mu  sync.Mutex
	bus *obs.Bus
	// report is the in-flight link report's span (zero when none): a
	// failover mid-report is tagged with it, so it stays in the report's
	// trace.
	report  obs.SpanRef
	stopped bool
	closed  bool
	table   *routing.VLANTable
	quit    chan struct{}
	done    chan struct{}

	// tableLoaded is closed when the preloaded failure-group table
	// arrives (Section 4.3 hot-standby provisioning).
	tableLoaded chan struct{}
}

// Dial connects an agent for the given switch to the controller serving at
// addr: a cluster of one.
func Dial(addr string, id sbnet.SwitchID, interval time.Duration) (*Agent, error) {
	return DialCluster([]string{addr}, id, interval)
}

// DialCluster connects an agent to a replicated controller cluster: it
// discovers the current leader among addrs (each replica's serving address)
// and keeps following it — a write failure or a msgNotLeader redirect makes
// the agent re-dial, hint-first, and resume. Dialing tolerates an election
// in progress (no replica leads yet) for a few seconds.
func DialCluster(addrs []string, id sbnet.SwitchID, interval time.Duration) (*Agent, error) {
	return dialAgent(addrs, []sbnet.SwitchID{id}, interval)
}

// dialAgent connects one agent speaking for ids (ids[0] is its ID).
func dialAgent(addrs []string, ids []sbnet.SwitchID, interval time.Duration) (*Agent, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("ctlnet: agent interval %v must be positive", interval)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("ctlnet: agent needs at least one cluster address")
	}
	a := &Agent{
		ID:          ids[0],
		ids:         append([]sbnet.SwitchID(nil), ids...),
		interval:    interval,
		addrs:       append([]string(nil), addrs...),
		ackCh:       make(chan byte, 4),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		tableLoaded: make(chan struct{}),
	}
	// Each round doubles the per-replica deadline, within a 5 s budget: a
	// silent replica costs the first round only leaderReplyTimeout, and a
	// loaded leader that answers late still admits the agent on a later one.
	budget := time.Now().Add(5 * time.Second)
	for wait := leaderReplyTimeout; ; wait = min(2*wait, time.Until(budget)) {
		conn, _, err := a.dialLeader("", wait)
		if err == nil {
			a.conn = conn
			break
		}
		if time.Now().After(budget) {
			return nil, fmt.Errorf("ctlnet: agent dial cluster: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	go a.keepAliveLoop()
	go a.readLoop(a.conn, 0)
	return a, nil
}

// dialLeader finds the replica that currently leads: it asks each candidate
// (redirect hint first) who leads via msgLeaderReq, waiting up to wait for
// the dial and again for the answer, follows the answer, and registers once a
// self-professed leader is found: one msgHello per ID, all in one write.
func (a *Agent) dialLeader(hint string, wait time.Duration) (net.Conn, string, error) {
	cands := append([]string{hint}, a.addrs...)
	tried := make(map[string]bool, len(cands))
	for len(cands) > 0 {
		addr := cands[0]
		cands = cands[1:]
		if addr == "" || tried[addr] {
			continue
		}
		tried[addr] = true
		c, err := tcpserve.Dial(addr, wait)
		if err != nil {
			continue
		}
		if err := writeFrame(c, msgLeaderReq, nil); err != nil {
			c.Close()
			continue
		}
		c.SetReadDeadline(time.Now().Add(wait))
		typ, payload, err := readFrame(c)
		c.SetReadDeadline(time.Time{})
		if err != nil || typ != msgLeaderInfo {
			c.Close()
			continue
		}
		isLeader, leader, err := decodeLeaderInfo(payload)
		if err != nil {
			c.Close()
			continue
		}
		if !isLeader {
			c.Close()
			// Chase the candidate's hint before the remaining replicas.
			if leader != "" && !tried[leader] {
				cands = append([]string{leader}, cands...)
			}
			continue
		}
		var hellos []byte
		for _, id := range a.ids {
			hellos = appendFrame(hellos, msgHello, encodeHello(id))
		}
		if _, err := c.Write(hellos); err != nil {
			c.Close()
			continue
		}
		return c, addr, nil
	}
	return nil, "", fmt.Errorf("ctlnet: no leader reachable among %v", a.addrs)
}

// reconnect replaces connection generation fromGen with a fresh session to
// the current leader (hint-first). A no-op when the agent is closed or when
// another path already reconnected; when every candidate fails the dead
// connection stays in place so writes keep failing fast and the next
// keep-alive tick (or report retry) tries again.
//
// Ending the generation wakes a report waiting for its ack: a redirect, or a
// leader that died holding it unacked, and waiting out the ack timeout would
// leave the failed link unrecovered (and its agent's switch exposed to
// spurious node-death detection) for seconds. The wake is sent under a.mu, as
// the report loop drains stale acks and writes, so it never reaches an
// attempt written on a later generation.
func (a *Agent) reconnect(fromGen uint64, hint string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || a.gen != fromGen {
		return
	}
	a.conn.Close()
	select {
	case a.ackCh <- ackRedirected:
	default:
	}
	conn, addr, err := a.dialLeader(hint, leaderReplyTimeout)
	if err != nil {
		return
	}
	a.gen++
	a.conn = conn
	go a.readLoop(conn, a.gen)
	if a.bus.Enabled() {
		// Emitted inside the in-flight report's span (if any): a stitched
		// recovery trace shows the failover hop between report attempts.
		ev := obs.NewEvent(obs.KindFailover, obs.Now())
		ev.Wall = true
		ev.Switch = int32(a.ID)
		ev.Detail = addr
		ev.Count = int32(a.gen)
		a.report.Tag(&ev)
		a.bus.Emit(ev)
	}
}

// SetObserver attaches an event bus: the agent emits failure-declared and
// failover events on it, giving the switch process its own span in
// stitched traces. Name the bus (e.g. bus.SetProc("agent-12")) so spans are
// attributable. Attach before failures are reported.
func (a *Agent) SetObserver(bus *obs.Bus) {
	a.mu.Lock()
	a.bus = bus
	a.mu.Unlock()
}

// readLoop handles server-to-agent messages on one connection generation:
// preloaded tables, report acks, and leader redirects.
// Unknown message types are skipped (forward compatibility). It exits when
// the connection closes, after kicking off a reconnect.
func (a *Agent) readLoop(conn net.Conn, gen uint64) {
	// One reusable frame buffer for the connection's lifetime; every case
	// below decodes (or copies) the payload before the next frame is read.
	fr := frameReader{r: conn}
	for {
		typ, payload, err := fr.next()
		if err != nil {
			a.reconnect(gen, "")
			return
		}
		switch typ {
		case msgNotLeader:
			// This replica lost (or never had) leadership; chase its hint
			// on a fresh session. The brief pause keeps redirect chasing
			// from spinning while an election converges.
			hint := string(payload)
			time.Sleep(20 * time.Millisecond)
			a.reconnect(gen, hint)
			return
		case msgReportAck:
			if status, err := decodeReportAck(payload); err == nil {
				select {
				case a.ackCh <- status:
				default:
				}
			}
		case msgTableLoad:
			vt, err := routing.UnmarshalVLANTable(payload)
			if err != nil {
				continue
			}
			a.mu.Lock()
			first := a.table == nil
			a.table = vt
			a.mu.Unlock()
			if first {
				close(a.tableLoaded)
			}
		}
	}
}

// WaitTable blocks until the preloaded table arrives or the timeout
// expires, reporting success.
func (a *Agent) WaitTable(timeout time.Duration) bool {
	select {
	case <-a.tableLoaded:
		return true
	case <-time.After(timeout):
		return false
	}
}

// keepAliveLoop sends the agent's keep-alive batch every tick, from reused
// buffers: its IDs chunked at the frame's pair capacity, every chunk's frame
// in one write. A failed write re-dials the leader and the stream goes on.
func (a *Agent) keepAliveLoop() {
	defer close(a.done)
	ticker := time.NewTicker(a.interval)
	defer ticker.Stop()
	var pay, buf []byte
	seq := uint64(0)
	for {
		select {
		case <-a.quit:
			return
		case <-ticker.C:
			seq++
			buf = buf[:0]
			for ids := a.ids; len(ids) > 0; {
				n := min(len(ids), maxKAPairs)
				pay = appendKeepAliveBatch(pay[:0], ids[:n], seq)
				buf = appendFrame(buf, msgKeepAliveBatch, pay)
				ids = ids[n:]
			}
			a.mu.Lock()
			gen := a.gen
			_, err := a.conn.Write(buf)
			a.mu.Unlock()
			if err != nil {
				a.reconnect(gen, "")
			}
		}
	}
}

// ReportLinkFailureDetected reports a failed link by both suspect interfaces
// (the agent's own and the peer's), as switches on both sides of a failed
// link do in Section 4.1, with the detection latency the agent measured
// (e.g. via a detect.Monitor; 0 means the controller's default). With a bus
// attached it opens the recovery's root span, emits the failure-declared
// event, and carries the span's context in the report, so the controller's
// recovery — and the circuit-switch reconfigurations under it — join one
// cross-process trace.
//
// The report is delivered reliably: it returns once the controller applied
// it, with the refusal if the recovery was refused (no backup left,
// controller halted). A report that did not commit — a write error, an ack
// timeout, a redirect, a lost leadership — is resent to whoever leads.
func (a *Agent) ReportLinkFailureDetected(ownPort int, peer sbnet.SwitchID, peerPort int, detection time.Duration) error {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return fmt.Errorf("ctlnet: agent %d stopped", a.ID)
	}
	var span obs.SpanRef
	if a.bus.Enabled() {
		span = a.bus.StartSpan(obs.TraceContext{})
		a.report = span
		defer func() {
			a.mu.Lock()
			if a.report == span {
				a.report = obs.SpanRef{}
			}
			a.mu.Unlock()
		}()
		ev := obs.NewEvent(obs.KindFailureDeclared, obs.Now())
		ev.Wall = true
		span.Tag(&ev)
		ev.Switch = int32(a.ID)
		ev.Port = int32(ownPort)
		ev.Peer = int32(peer)
		ev.PeerPort = int32(peerPort)
		ev.Detection = detection
		ev.Detail = "link"
		a.bus.Emit(ev)
	}
	a.mu.Unlock()
	payload := encodeLinkFail(span.Context(), detection, a.ID, ownPort, peer, peerPort)
	// Each attempt writes to the current leader session and waits for
	// msgReportAck. Anything but an ack triggers a failover (re-dial the
	// leader, emitting KindFailover inside the recovery's span) and a resend
	// — which every replica applies as done if the previous leader already
	// committed the recovery.
	const attempts = 8
	backoff := 25 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return fmt.Errorf("ctlnet: agent %d closed", a.ID)
		}
		gen := a.gen
		// Drop stale acks so the wait below matches this attempt.
		for drained := false; !drained; {
			select {
			case <-a.ackCh:
			default:
				drained = true
			}
		}
		err := writeFrame(a.conn, msgLinkFail, payload)
		a.mu.Unlock()
		if err == nil {
			status, ok := a.waitAck(proposeTimeout)
			switch {
			case ok && status == reportAckOK:
				return nil
			case ok && status == ackRedirected:
				lastErr = fmt.Errorf("ctlnet: leader changed mid-report")
			case ok:
				// Applied and refused: final on every replica.
				return fmt.Errorf("ctlnet: link report refused (status %d)", status)
			default:
				lastErr = fmt.Errorf("ctlnet: link report ack timed out")
			}
		} else {
			lastErr = err
		}
		a.reconnect(gen, "")
		time.Sleep(backoff)
		if backoff < 400*time.Millisecond {
			backoff *= 2
		}
	}
	return lastErr
}

// waitAck blocks for the next report acknowledgement.
func (a *Agent) waitAck(timeout time.Duration) (byte, bool) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case status := <-a.ackCh:
		return status, true
	case <-t.C:
		return 0, false
	}
}

// StopHeartbeats silences the agent without closing the connection —
// simulating a node failure as the controller sees it.
func (a *Agent) StopHeartbeats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.stopped {
		a.stopped = true
		close(a.quit)
	}
}

// Close stops the agent and closes its connection.
func (a *Agent) Close() error {
	a.mu.Lock()
	a.closed = true // stop any further reconnect attempts
	conn := a.conn
	a.mu.Unlock()
	a.StopHeartbeats()
	<-a.done
	return conn.Close()
}

// Monitor subscribes to the server's recovery events.
type Monitor struct {
	conn   net.Conn
	Events chan RecoveryEvent
	errMu  sync.Mutex
	err    error
}

// Subscribe connects a monitor and starts decoding recovery events into
// Events (closed when the connection drops).
func Subscribe(addr string) (*Monitor, error) {
	conn, err := tcpserve.Dial(addr, 0)
	if err != nil {
		return nil, fmt.Errorf("ctlnet: monitor dial: %w", err)
	}
	if err := writeFrame(conn, msgSubscribe, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctlnet: subscribe: %w", err)
	}
	// Wait for the acknowledgement: the server publishes to this
	// connection from the moment it has sent it.
	typ, _, err := readFrame(conn)
	if err == nil && typ != msgSubAck {
		err = fmt.Errorf("got message type %d", typ)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctlnet: subscribe ack: %w", err)
	}
	m := &Monitor{conn: conn, Events: make(chan RecoveryEvent, 16)}
	go m.readLoop()
	return m, nil
}

func (m *Monitor) readLoop() {
	defer close(m.Events)
	fr := frameReader{r: m.conn}
	for {
		typ, payload, err := fr.next()
		if err != nil {
			m.setErr(err)
			return
		}
		if typ != msgRecovery {
			// Forward compatibility: skip message types this monitor
			// doesn't understand instead of dropping the subscription.
			continue
		}
		ev, err := decodeRecovery(payload)
		if err != nil {
			m.setErr(err)
			return
		}
		m.Events <- ev
	}
}

func (m *Monitor) setErr(err error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.errMu.Unlock()
}

// Err returns the first read error, if any (net.ErrClosed / io.EOF after
// Close are normal).
func (m *Monitor) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// Close tears down the subscription.
func (m *Monitor) Close() error { return m.conn.Close() }
