package ctlnet

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/obs"
	"sharebackup/internal/routing"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/tcpserve"
	"sharebackup/internal/topo"
)

// ClusterHooks is the server's view of its consensus replica: every server
// is one member of a replicated controller cluster, a single controller a
// cluster of one. ctlnet owns the interface (and ctlplane knows nothing of
// ctlnet) so the dependency points one way: server → consensus.
type ClusterHooks interface {
	// IsLeader reports whether this replica currently leads.
	IsLeader() bool
	// LeaderAddr returns the serving (agent-facing) address of the replica
	// believed to lead, or "" when unknown — sent to agents as the redirect
	// hint in msgNotLeader.
	LeaderAddr() string
	// Propose replicates the command through the log; once committed it is
	// applied on every replica via Server.ApplyCommand, and the local
	// apply's recovery record is returned.
	Propose(cmd ctlplane.Command, timeout time.Duration) (*controller.Recovery, error)
}

// proposeTimeout bounds one replicated-log commit, covering a leader
// election in the worst case (default election timeout ≈ 250–500 ms).
const proposeTimeout = 2 * time.Second

// ServerConfig tunes the TCP control plane.
type ServerConfig struct {
	// Interval is the expected keep-alive interval. Default 5 ms.
	Interval time.Duration
	// MissThreshold is how many missed intervals declare a node dead.
	// Default 3.
	MissThreshold int
	// Obs receives the server's structured events (the recoveries it
	// traces while it leads, tables-preloaded, and its diagnostics as log
	// events) with wall-clock timestamps on the process epoch (obs.Now).
	// Defaults to obs.Default so command-level -trace/-events flags
	// observe the server without plumbing; set it explicitly to isolate a
	// server in tests. If the bus has no process name yet, the server names
	// it "controller".
	Obs *obs.Bus
	// CSAddrs lists circuit-switch control-service addresses. The server
	// dials each at startup and mirrors every recovery to each service as a
	// traced reconfiguration batch — making the controller-to-circuit-switch
	// leg a measured hop of the recovery's cross-process trace (one crossbar
	// swap of ports 0 and 1 per recovery). Empty disables mirroring.
	CSAddrs []string
	// Cluster is this server's consensus replica, and is required: recovery
	// mutations are proposed into the replicated log and applied when they
	// commit, non-leaders redirect agents with msgNotLeader, and link reports
	// are acknowledged so agents can resend across a leader failover.
	Cluster ClusterHooks
}

// check rejects a negative field by name; zero keeps its default.
func (c *ServerConfig) check() error {
	return errors.Join(
		negative("ServerConfig", "Interval", c.Interval),
		negative("ServerConfig", "MissThreshold", c.MissThreshold),
	)
}

// negative reports a negative config field as an error naming it.
func negative[T int | time.Duration](cfg, field string, v T) error {
	if v < 0 {
		return fmt.Errorf("ctlnet: %s.%s is %v; it may not be negative", cfg, field, v)
	}
	return nil
}

func (c *ServerConfig) setDefaults() {
	if c.Interval == 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.MissThreshold == 0 {
		c.MissThreshold = 3
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
}

// Server is the controller endpoint: it accepts switch agents and monitors,
// tracks keep-alives on the wall clock, and drives failover on the
// underlying network when a switch goes silent.
type Server struct {
	cfg       ServerConfig
	state     *replicaState
	srv       *tcpserve.Server
	bus       *obs.Bus
	csClients []*CSClient

	// Runtime metrics, merged into the controller's registry so one varz
	// snapshot covers both layers.
	mKeepalives  *obs.Counter
	mTablePushes *obs.Counter
	mProbeMisses *obs.Counter
	mUnknownMsgs *obs.Counter
	mWireErrors  *obs.Counter
	mKABatches   *obs.Counter
	gConns       *obs.Gauge

	// The detector's own lights (detector.go): how often it wakes, how many
	// switches have a deadline pending, and how far past lastSeen+deadline
	// each dead switch was declared; and how often a late wake declined to
	// declare (the stall guard).
	mDetectorWakes   *obs.Counter
	mStallGraces     *obs.Counter
	gDetectorEntries *obs.Gauge
	hDetectOvershoot *obs.Histogram

	// det is the keep-alive fan-in and node-failure detector (detector.go).
	det detector

	// numSwitches is fixed at construction so the keep-alive hot path never
	// consults the network model's size under a lock.
	numSwitches int

	// mu guards subs and tables alone; the replica state has its own lock.
	mu     sync.Mutex
	subs   []net.Conn     // recovery-event subscribers (publish)
	tables map[int][]byte // per-pod serialized combined tables

	// wg counts the detector and the goroutines it and the readers start;
	// the readers themselves belong to srv.
	wg       sync.WaitGroup
	quit     chan struct{}
	quitOnce sync.Once
}

// logf routes a diagnostic line through the event bus as a log event (the
// bus serializes sink dispatch).
func (s *Server) logf(format string, args ...interface{}) {
	s.bus.Logf(s.Now(), true, format, args...)
}

// NewServer starts a controller server listening on addr, a tcpserve
// address (TCP, or "mem:0" in memory). The controller's virtual clock is
// driven from the wall clock on the process epoch.
func NewServer(addr string, ctl *controller.Controller, cfg ServerConfig) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("ctlnet: a server needs its consensus replica (ServerConfig.Cluster)")
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	ln, err := tcpserve.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("ctlnet: listen: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		state: &replicaState{ctl: ctl},
		bus:   cfg.Obs,
		quit:  make(chan struct{}),
	}
	s.numSwitches = ctl.Network().NumSwitches()
	s.det.queue = newExpiryQueue(s.numSwitches, time.Duration(cfg.MissThreshold)*cfg.Interval)
	s.det.stallAt = -cfg.Interval
	reg := ctl.Metrics()
	s.mKeepalives = reg.Counter("ctlnet.keepalives")
	s.mTablePushes = reg.Counter("ctlnet.table_pushes")
	s.mProbeMisses = reg.Counter("ctlnet.probe_misses")
	s.mUnknownMsgs = reg.Counter("ctlnet.unknown_msgs")
	s.mWireErrors = reg.Counter("ctlnet.wire_errors")
	s.mKABatches = reg.Counter("ctlnet.ka_batches")
	s.gConns = reg.Gauge("ctlnet.connections")
	s.mDetectorWakes = reg.Counter("ctlnet.detector_wakes")
	s.mStallGraces = reg.Counter("ctlnet.detector_stall_graces")
	s.gDetectorEntries = reg.Gauge("ctlnet.detector_entries")
	s.hDetectOvershoot = reg.Histogram("ctlnet.detect_overshoot_ns")
	if s.bus.Proc() == "" {
		s.bus.SetProc("controller")
	}
	for _, addr := range cfg.CSAddrs {
		cl, err := DialCS(addr)
		if err != nil {
			for _, c := range s.csClients {
				c.Close()
			}
			ln.Close()
			return nil, fmt.Errorf("ctlnet: cs dial %s: %w", addr, err)
		}
		s.csClients = append(s.csClients, cl)
	}
	s.wg.Add(1)
	go s.detectLoop()
	s.srv = tcpserve.Serve(ln, s.serveConn, s.logf)
	return s, nil
}

// Now is the server's one clock: the process epoch (obs.Now) on which its
// detector stamps keep-alives and deadlines, its events are stamped and its
// commands carry their times.
func (s *Server) Now() time.Duration { return obs.Now() }

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the server, severs its connections and waits for its
// goroutines, connection readers included.
func (s *Server) Close() error {
	s.quitOnce.Do(func() { close(s.quit) })
	err := s.srv.Close()
	s.wg.Wait()
	for _, c := range s.csClients {
		c.Close()
	}
	return err
}

// replyWriteTimeout bounds server->agent reply writes: a peer that stopped
// reading its replies loses the connection instead of holding a reader
// goroutine for as long as it likes.
const replyWriteTimeout = 2 * time.Second

// writeReply writes one reply frame with a bounded write deadline.
func writeReply(conn net.Conn, typ byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(replyWriteTimeout))
	err := writeFrame(conn, typ, payload)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// wireError counts a malformed steady-state payload. The frame is already
// length-delimited and consumed, so the stream stays in sync — skip it and
// keep the session (and, with batching, the whole agent group behind it)
// alive. Only unrecoverable framing errors disconnect.
func (s *Server) wireError(err error) {
	s.mWireErrors.Inc()
	s.logf("ctlnet: wire error (frame skipped): %v", err)
}

// handleFrame dispatches one frame for sc, on sc's reader goroutine. A
// non-nil return tears the connection down; malformed payloads on
// steady-state message types are skipped via wireError instead. payload
// aliases the reader's buffer and must not be retained.
func (s *Server) handleFrame(sc *srvConn, typ byte, payload []byte) error {
	conn := sc.conn
	switch typ {
	case msgHello:
		id, err := decodeHello(payload)
		if err == nil && int(id) >= s.numSwitches {
			err = fmt.Errorf("ctlnet: hello names switch %d, outside the fabric's %d", id, s.numSwitches)
		}
		if err != nil {
			// Handshake integrity: a malformed hello, or one naming no
			// switch of the fabric, is a protocol violation from a client
			// that never registered — drop it.
			s.logf("ctlnet: %v", err)
			return err
		}
		if !s.cfg.Cluster.IsLeader() {
			return s.redirect(conn)
		}
		s.seen(id)
		// Hot-standby provisioning (Section 4.3): edge-group
		// switches — regular and backup alike — receive their
		// pod's combined failure-group table on registration.
		if tbl := s.tableFor(id); tbl != nil {
			if err := writeReply(conn, msgTableLoad, tbl); err != nil {
				s.logf("ctlnet: table push to %d: %v", id, err)
				return err
			}
			s.mTablePushes.Inc()
			if s.bus.Enabled() {
				ev := obs.NewEvent(obs.KindTablesPreloaded, s.Now())
				ev.Wall = true
				ev.Switch = int32(id)
				ev.Count = int32(len(tbl))
				s.bus.Emit(ev)
			}
		}
	case msgKeepAliveBatch:
		cnt, err := kaBatchCount(payload)
		if err != nil {
			s.wireError(err)
			return nil
		}
		s.mKABatches.Inc()
		s.mKeepalives.Add(int64(cnt))
		if !s.cfg.Cluster.IsLeader() {
			return s.redirectPaced(sc)
		}
		s.seenBatch(payload, cnt)
	case msgLinkFail:
		ctx, detection, aSw, aPort, bSw, bPort, err := decodeLinkFail(payload)
		if err != nil {
			s.wireError(err)
			return nil
		}
		s.handleLinkFail(conn, ctx, detection, aSw, aPort, bSw, bPort)
	case msgLeaderReq:
		isLeader := s.cfg.Cluster.IsLeader()
		addr := s.Addr()
		if !isLeader {
			addr = s.cfg.Cluster.LeaderAddr()
		}
		if err := writeReply(conn, msgLeaderInfo, encodeLeaderInfo(isLeader, addr)); err != nil {
			s.logf("ctlnet: leader info reply: %v", err)
			return err
		}
	case msgSubscribe:
		// Ack, then join subs, both under s.mu: no publish can precede the
		// ack, and none can fall between the ack (Subscribe returns on it)
		// and the join, where it would reach every subscriber but this one.
		// This reader writes nothing after it that could race publish's
		// write deadline.
		s.mu.Lock()
		err := writeReply(conn, msgSubAck, nil)
		if err == nil {
			s.subs = append(s.subs, conn)
		}
		s.mu.Unlock()
		if err != nil {
			s.logf("ctlnet: subscribe ack: %v", err)
			return err
		}
	default:
		// Forward compatibility: frames are length-prefixed, so the
		// payload of an unrecognized type is already consumed — skip it
		// and keep the session alive rather than killing a newer agent
		// that speaks additional message types.
		s.mUnknownMsgs.Inc()
		s.logf("ctlnet: skipping unknown message type %d", typ)
	}
	return nil
}

// redirectPaced rate-limits msgNotLeader on the keep-alive firehose.
func (s *Server) redirectPaced(sc *srvConn) error {
	if time.Since(sc.lastRedirect) < 250*time.Millisecond {
		return nil
	}
	sc.lastRedirect = time.Now()
	return s.redirect(sc.conn)
}

// redirect tells an agent where the leader is ("" when unknown).
func (s *Server) redirect(conn net.Conn) error {
	return writeFrame(conn, msgNotLeader, []byte(s.cfg.Cluster.LeaderAddr()))
}

// tableFor builds (and caches) the serialized combined table for an
// edge-group switch's pod; nil for agg/core switches, whose shared tables
// are a degenerate case the agents already derive from k.
func (s *Server) tableFor(id sbnet.SwitchID) []byte {
	net := s.state.ctl.Network()
	sw := net.Switch(id)
	if sw.Kind != topo.KindEdge {
		return nil
	}
	pod := net.Group(sw.Group).Pod
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil {
		s.tables = make(map[int][]byte)
	}
	if b, ok := s.tables[pod]; ok {
		return b
	}
	vt, err := routing.BuildVLANTable(net.K(), pod)
	if err != nil {
		s.logf("ctlnet: building table for pod %d: %v", pod, err)
		return nil
	}
	b, err := vt.MarshalBinary()
	if err != nil {
		s.logf("ctlnet: encoding table for pod %d: %v", pod, err)
		return nil
	}
	s.tables[pod] = b
	return b
}

// handleLinkFail turns a link-failure report into a replicated command and
// answers with its outcome (ackReport), so agents resend exactly the reports
// that never committed.
func (s *Server) handleLinkFail(conn net.Conn, ctx obs.TraceContext, detection time.Duration, aSw sbnet.SwitchID, aPort int, bSw sbnet.SwitchID, bPort int) {
	if !s.cfg.Cluster.IsLeader() {
		if err := s.redirect(conn); err != nil {
			s.logf("ctlnet: link report redirect: %v", err)
		}
		return
	}
	// A resend of a report that already committed (its leader died before
	// acking) is proposed all the same: the replicated apply finds its
	// recovery done and acks it as a success.
	cmd := ctlplane.Command{
		Kind:        ctlplane.CmdRecoverLink,
		ASwitch:     int32(aSw),
		APort:       int32(aPort),
		BSwitch:     int32(bSw),
		BPort:       int32(bPort),
		AtNS:        s.Now().Nanoseconds(),
		DetectionNS: detection.Nanoseconds(),
		Trace:       ctx.Trace,
		Span:        ctx.Span,
		Proc:        ctx.Proc,
	}
	// A consensus round can outlast many keep-alive intervals (an election
	// in progress, a slow follower), and this goroutine is the connection's
	// only reader: the reporter's keep-alives are queued behind the report.
	// Waiting here left them unread until the round returned, and the
	// detector declared the live reporter dead mid-report. The round
	// finishes on its own goroutine; the reader goes back to reading.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_, err := s.cfg.Cluster.Propose(cmd, proposeTimeout)
		s.ackReport(conn, err)
	}()
}

// ackReport tells the reporting agent how its link report fared. A command
// that was applied is final either way: recovered, or refused (no backup
// left, controller halted) — resending a refused report would only charge
// its circuit switch again, toward the §5.1 halt. Any other error comes from
// the consensus round (not leader, lost leadership, stopped, timed out), so
// the report may never have committed: the agent is redirected, and resends
// it to whoever leads.
func (s *Server) ackReport(conn net.Conn, err error) {
	status := reportAckOK
	if err != nil {
		s.logf("ctlnet: link recovery: %v", err)
		if !errors.As(err, new(refused)) {
			if err := s.redirect(conn); err != nil {
				s.logf("ctlnet: link report redirect: %v", err)
			}
			return
		}
		status = reportAckRefused
	}
	if err := writeFrame(conn, msgReportAck, encodeReportAck(status)); err != nil {
		s.logf("ctlnet: report ack: %v", err)
	}
}

// recoverDead proposes the node failover for one switch the detector
// declared dead. Each declared switch gets its own short-lived goroutine
// (detectLoop): a stalled consensus round holds up no recovery behind it, and
// the node pipelines a storm's proposals. A switch leaves the detector when
// it is declared, so at most one goroutine per in-model switch is in flight.
func (s *Server) recoverDead(c deadCandidate) {
	defer s.wg.Done()
	cmd := ctlplane.Command{
		Kind:       ctlplane.CmdRecoverNode,
		Switch:     int32(c.id),
		LastSeenNS: c.lastSeen.Nanoseconds(),
		AtNS:       s.Now().Nanoseconds(),
	}
	if !s.cfg.Cluster.IsLeader() {
		return
	}
	if _, err := s.cfg.Cluster.Propose(cmd, proposeTimeout); err != nil {
		s.logf("ctlnet: node recovery of %d: %v", c.id, err)
	}
}

// ApplyCommand applies one committed controller mutation and returns its
// recovery. As the consensus node's Apply hook it runs on every replica —
// leader and follower alike — against the replica's own state, with all
// timestamps taken from the command, so the applied state is deterministic
// across the cluster. The stopwatch around the apply is the recovery's
// report phase.
func (s *Server) ApplyCommand(data []byte) (*controller.Recovery, error) {
	t0 := time.Now()
	cmd, rec, err := s.state.Apply(data)
	if err == nil || errors.As(err, new(refused)) {
		s.finishLive(cmd, rec, err, time.Since(t0))
	}
	return rec, err
}

// finishLive runs the side effects of one applied command. The leader traces
// it (the recovery's one trace across the cluster: followers apply the same
// command but trace nothing), mirrors a recovery to the circuit switches
// under that trace, and re-arms its detector; every replica publishes the
// recovery.
func (s *Server) finishLive(cmd ctlplane.Command, rec *controller.Recovery, err error, processing time.Duration) {
	if s.cfg.Cluster.IsLeader() {
		a := controller.Attempt{
			Kind: "link", At: time.Duration(cmd.AtNS), Rec: rec, Err: err,
			Done: s.Now(), Report: processing, Wall: true,
		}
		// The reporting agent's span roots a link recovery's trace; a node
		// recovery's roots its own.
		var parent obs.TraceContext
		if cmd.Kind == ctlplane.CmdRecoverNode {
			a.Kind, a.A.Switch = "node", sbnet.SwitchID(cmd.Switch)
			a.Detection = time.Duration(cmd.AtNS - cmd.LastSeenNS)
		} else {
			a.A = controller.EndPoint{Switch: sbnet.SwitchID(cmd.ASwitch), Port: int(cmd.APort)}
			a.B = controller.EndPoint{Switch: sbnet.SwitchID(cmd.BSwitch), Port: int(cmd.BPort)}
			a.Detection = time.Duration(cmd.DetectionNS)
			parent = obs.TraceContext{Trace: cmd.Trace, Span: cmd.Span, Proc: cmd.Proc}
		}
		span := controller.Emit(s.bus, parent, a)
		if rec != nil {
			s.mirrorCS(span.Context())
			// Only the leader runs a detector: tell it which spares just
			// went on active duty.
			for _, id := range rec.Backup {
				s.promoted(id)
			}
		}
	}
	if rec == nil {
		return
	}
	ev := RecoveryEvent{Kind: "link", Failed: rec.Failed, Backup: rec.Backup, Latency: processing}
	if cmd.Kind == ctlplane.CmdRecoverNode {
		ev.Kind = "node"
		ev.Latency = time.Duration(cmd.AtNS-cmd.LastSeenNS) + processing
	}
	s.publish(ev)
}

// SnapshotState is the consensus node's Snapshot hook (replicaState.Snapshot).
func (s *Server) SnapshotState() []byte { return s.state.Snapshot() }

// RestoreState is the consensus node's Restore hook (replicaState.Restore).
func (s *Server) RestoreState(data []byte) error { return s.state.Restore(data) }

// mirrorCS sends a recovery's reconfiguration batch to every attached
// circuit-switch service, carrying the recovery's trace context so each
// crossbar reconfiguration lands as a child span of the controller's.
func (s *Server) mirrorCS(ctx obs.TraceContext) {
	if len(s.csClients) == 0 {
		return
	}
	changes := []circuit.Change{{A: 0, B: 1}}
	for _, cl := range s.csClients {
		if _, _, err := cl.reconfigure(ctx, changes); err != nil {
			s.logf("ctlnet: cs mirror: %v", err)
		}
	}
}

// publish sends a recovery event to all subscribers. It runs on every
// replica's apply path, so each write is bounded by replyWriteTimeout: a
// subscriber whose write fails is closed and dropped, and one that stopped
// reading cannot stall the consensus loop.
func (s *Server) publish(ev RecoveryEvent) {
	payload := encodeRecovery(ev)
	s.mu.Lock()
	subs := append([]net.Conn(nil), s.subs...)
	s.mu.Unlock()
	for _, c := range subs {
		if err := writeReply(c, msgRecovery, payload); err != nil {
			c.Close()
			s.mu.Lock()
			if i := slices.Index(s.subs, c); i >= 0 {
				s.subs = slices.Delete(s.subs, i, i+1)
			}
			s.mu.Unlock()
		}
	}
}
