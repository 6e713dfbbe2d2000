package ctlnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/obs"
	"sharebackup/internal/routing"
	"sharebackup/internal/sbnet"
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
	// Obs receives the server's structured events (failure-declared,
	// recovery-complete, tables-preloaded, and its diagnostics as log
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
	// FleetSize widens the keep-alive tracking range beyond the network
	// model: switch IDs in [0, max(FleetSize, NumSwitches)) are accepted
	// on the keep-alive path, but only in-model switches are
	// recovery-eligible — a silent synthetic ID is simply forgotten. This is
	// how the fleet bench drives 10k+ agents through a server whose fat-tree
	// model is far smaller. Default 0 (track exactly the network model).
	FleetSize int
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
		negative("ServerConfig", "FleetSize", c.FleetSize),
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
	ctl       *controller.Controller
	ln        net.Listener
	bus       *obs.Bus
	csClients []*CSClient

	// Runtime metrics, merged into the controller's registry so one varz
	// snapshot covers both layers.
	mKeepalives  *obs.Counter
	mHellos      *obs.Counter
	mLinkReports *obs.Counter
	mTablePushes *obs.Counter
	mProbeMisses *obs.Counter
	mLogLines    *obs.Counter
	mUnknownMsgs *obs.Counter
	mWireErrors  *obs.Counter
	mKABatches   *obs.Counter
	gSubscribers *obs.Gauge
	gConns       *obs.Gauge

	// The detector's own lights (detector.go): how often it wakes and how
	// much it folds, how many switches have a deadline pending, and how far
	// past lastSeen+deadline each dead switch was declared; and how often a
	// late wake declined to declare (the stall guard).
	mDetectorWakes   *obs.Counter
	mRecordsFolded   *obs.Counter
	mStallGraces     *obs.Counter
	gDetectorEntries *obs.Gauge
	hDetectOvershoot *obs.Histogram

	// det is the keep-alive fan-in and node-failure detector (detector.go).
	det detector

	// numSwitches and fleetSize are fixed at construction so the keep-alive
	// hot path never consults the network model's size under a lock.
	numSwitches int
	fleetSize   int

	mu     sync.Mutex
	subs   []net.Conn
	conns  map[net.Conn]struct{} // live connections (conn.go), closed on shutdown
	tables map[int][]byte        // per-pod serialized combined tables
	// appliedCmds is the ordered replicated-command history — the replay
	// snapshot (SnapshotState) and the restore cursor (RestoreState applies
	// only the tail past this prefix).
	appliedCmds [][]byte
	closed      bool

	wg   sync.WaitGroup
	quit chan struct{}
}

// logf counts a diagnostic line and routes it through the event bus as a log
// event (the bus serializes sink dispatch).
func (s *Server) logf(format string, args ...interface{}) {
	s.mLogLines.Inc()
	s.bus.Logf(s.Now(), true, format, args...)
}

// NewServer starts a controller server listening on addr (use
// "127.0.0.1:0" for tests). The controller's virtual clock is driven from
// the wall clock on the process epoch.
func NewServer(addr string, ctl *controller.Controller, cfg ServerConfig) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("ctlnet: a server needs its consensus replica (ServerConfig.Cluster)")
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlnet: listen: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		ctl:   ctl,
		ln:    ln,
		bus:   cfg.Obs,
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
	s.numSwitches = ctl.Network().NumSwitches()
	s.fleetSize = s.numSwitches
	if cfg.FleetSize > s.fleetSize {
		s.fleetSize = cfg.FleetSize
	}
	s.det.queue = newExpiryQueue(s.fleetSize, time.Duration(cfg.MissThreshold)*cfg.Interval)
	s.det.stallAt = -cfg.Interval
	reg := ctl.Metrics()
	s.mKeepalives = reg.Counter("ctlnet.keepalives")
	s.mHellos = reg.Counter("ctlnet.hellos")
	s.mLinkReports = reg.Counter("ctlnet.link_reports")
	s.mTablePushes = reg.Counter("ctlnet.table_pushes")
	s.mProbeMisses = reg.Counter("ctlnet.probe_misses")
	s.mLogLines = reg.Counter("ctlnet.log_lines")
	s.mUnknownMsgs = reg.Counter("ctlnet.unknown_msgs")
	s.mWireErrors = reg.Counter("ctlnet.wire_errors")
	s.mKABatches = reg.Counter("ctlnet.ka_batches")
	s.gSubscribers = reg.Gauge("ctlnet.subscribers")
	s.gConns = reg.Gauge("ctlnet.connections")
	s.mDetectorWakes = reg.Counter("ctlnet.detector_wakes")
	s.mRecordsFolded = reg.Counter("ctlnet.detector_records_folded")
	s.mStallGraces = reg.Counter("ctlnet.detector_stall_graces")
	s.gDetectorEntries = reg.Gauge("ctlnet.detector_entries")
	s.hDetectOvershoot = reg.Histogram("ctlnet.detect_overshoot_ns")
	// The controller below this server runs on the server's virtual clock;
	// give it the same bus so its spans and the server's events interleave
	// in one stream.
	if ctl.Observer() == nil {
		ctl.SetObserver(s.bus)
	}
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
	s.wg.Add(2)
	go s.acceptLoop(ln)
	go s.detectLoop()
	return s, nil
}

// Now is the server's one clock: the process epoch (obs.Now) on which its
// detector stamps keep-alives and deadlines, its events are stamped and its
// commands carry their times.
func (s *Server) Now() time.Duration { return obs.Now() }

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, severs its connections and waits for its
// goroutines, connection readers included.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	subs := s.subs
	s.subs = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range subs {
		c.Close()
	}
	// Sever live agent sessions too: a killed cluster replica must not wait
	// for its agents to hang up first (they are busy failing over).
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	for _, c := range s.csClients {
		c.Close()
	}
	return err
}

// acceptLoop accepts connections from ln until the server closes. An Accept
// error on a running server (EMFILE, ECONNABORTED) is retried with a capped
// backoff, as net/http does, and logged once per streak: a leader that stopped
// accepting could never register a new or reconnecting agent.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if backoff == 0 {
				s.logf("ctlnet: accept: %v; retrying", err)
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			select {
			case <-s.quit:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1) // under mu with closed unset: ordered before Close's Wait
		s.mu.Unlock()
		s.gConns.Add(1)
		go s.serveConn(&srvConn{conn: conn})
	}
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
		if err != nil {
			// Handshake integrity: a malformed hello is a protocol
			// violation from a client that never registered — drop it.
			s.logf("ctlnet: %v", err)
			return err
		}
		s.mHellos.Inc()
		if !s.cfg.Cluster.IsLeader() {
			return s.redirect(conn)
		}
		s.seen(id)
		// Hot-standby provisioning (Section 4.3): edge-group
		// switches — regular and backup alike — receive their
		// pod's combined failure-group table on registration.
		// Out-of-model fleet IDs have no table.
		if int(id) >= s.numSwitches {
			return nil
		}
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
		s.mLinkReports.Inc()
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
		subscribed := false
		s.mu.Lock()
		if !s.closed {
			s.subs = append(s.subs, conn)
			sc.subscribed = true
			subscribed = true
			s.gSubscribers.Set(int64(len(s.subs)))
		}
		s.mu.Unlock()
		if !subscribed {
			return net.ErrClosed
		}
		if err := writeReply(conn, msgSubAck, nil); err != nil {
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
	net := s.ctl.Network()
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
	// Idempotent resend: an agent that reported to a leader which committed
	// the recovery but died before acking will resend here. If neither
	// endpoint is active anymore, the recovery this report describes has
	// already been applied — ack success without proposing a duplicate.
	if s.linkAlreadyRecovered(aSw, bSw) {
		s.ackReport(conn, nil)
		return
	}
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

// refused marks the error of a command that was applied: its outcome is
// part of the replicated history, the same on every replica.
type refused struct{ error }

func (r refused) Unwrap() error { return r.error }

// linkAlreadyRecovered reports whether both reported endpoints have already
// left active duty — the signature of a recovery that committed on a
// previous leader.
func (s *Server) linkAlreadyRecovered(aSw, bSw sbnet.SwitchID) bool {
	net := s.ctl.Network()
	n := net.NumSwitches()
	if int(aSw) < 0 || int(aSw) >= n || int(bSw) < 0 || int(bSw) >= n {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return net.Switch(aSw).Role != sbnet.RoleActive && net.Switch(bSw).Role != sbnet.RoleActive
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
// leader and follower alike — against the replica's own controller and
// network copy, with all timestamps taken from the command, so the applied
// state is deterministic across the cluster.
func (s *Server) ApplyCommand(data []byte) (*controller.Recovery, error) {
	cmd, err := ctlplane.DecodeCommand(data)
	if err != nil {
		return nil, err
	}
	return s.apply(cmd, data, true)
}

// apply runs one decoded command (data is its encoding, kept for the replay
// history). live is false on snapshot replay, which rebuilds state only: the
// leader already emitted, mirrored, and published the recovery when it
// happened.
func (s *Server) apply(cmd ctlplane.Command, data []byte, live bool) (*controller.Recovery, error) {
	s.mu.Lock()
	// Record the command before knowing its outcome: failed recoveries are
	// part of the deterministic history too (replicas replaying the log
	// must fail them identically).
	s.appliedCmds = append(s.appliedCmds, append([]byte(nil), data...))
	t0 := time.Now()
	rec, err := s.applyLocked(cmd, live)
	processing := time.Since(t0)
	s.mu.Unlock()
	if rec != nil && live {
		s.finishLive(cmd, rec, processing)
	}
	if err != nil {
		err = refused{err}
	}
	return rec, err
}

// applyLocked runs one recover command against the controller. Caller holds
// s.mu.
func (s *Server) applyLocked(cmd ctlplane.Command, live bool) (rec *controller.Recovery, err error) {
	switch cmd.Kind {
	case ctlplane.CmdRecoverNode:
		if err := s.inFabric(cmd.Switch); err != nil {
			return nil, err
		}
		if cmd.LastSeenNS > 0 {
			s.ctl.Heartbeat(sbnet.SwitchID(cmd.Switch), time.Duration(cmd.LastSeenNS))
		}
		rec, err = s.ctl.RecoverNode(sbnet.SwitchID(cmd.Switch), time.Duration(cmd.AtNS))
	case ctlplane.CmdRecoverLink:
		if err := s.inFabric(cmd.ASwitch, cmd.BSwitch); err != nil {
			return nil, err
		}
		traced := live && cmd.Trace != 0
		if traced {
			// The reporting agent opened the recovery's root span; the
			// controller's BeginSpan below joins it as a child.
			s.bus.SetRemoteParent(obs.TraceContext{Trace: cmd.Trace, Span: cmd.Span, Proc: cmd.Proc})
		}
		a := controller.EndPoint{Switch: sbnet.SwitchID(cmd.ASwitch), Port: int(cmd.APort)}
		b := controller.EndPoint{Switch: sbnet.SwitchID(cmd.BSwitch), Port: int(cmd.BPort)}
		if cmd.DetectionNS > 0 {
			// The reporting agent measured its detection; every replica
			// records that, not the probing interval.
			rec, err = s.ctl.ReportLinkFailureDetected(a, b, time.Duration(cmd.AtNS), time.Duration(cmd.DetectionNS))
		} else {
			rec, err = s.ctl.ReportLinkFailure(a, b, time.Duration(cmd.AtNS))
		}
		if err != nil && rec == nil && traced {
			// Recovery never opened a span; drop the staged remote parent so
			// it cannot leak into an unrelated recovery.
			s.bus.EndSpan()
		}
	}
	return rec, err
}

// inFabric rejects switch IDs outside the network model: a log entry or a
// snapshot is bytes from a peer, and the controller indexes its model by
// them.
func (s *Server) inFabric(ids ...int32) error {
	n := s.ctl.Network().NumSwitches()
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("ctlnet: command names switch %d, outside the fabric's %d", id, n)
		}
	}
	return nil
}

// finishLive runs the leader-visible side effects of one applied recovery.
func (s *Server) finishLive(cmd ctlplane.Command, rec *controller.Recovery, processing time.Duration) {
	s.emitRecovered(rec, s.Now()-processing, processing)
	if s.cfg.Cluster.IsLeader() {
		// Followers apply the same command but must not re-reconfigure the
		// shared circuit switches the leader already drove.
		s.mirrorCS(rec)
		// Only the leader runs a detector: tell it which spares just went
		// on active duty.
		for _, id := range rec.Backup {
			s.promoted(id)
		}
	}
	ev := RecoveryEvent{Kind: "link", Failed: rec.Failed, Backup: rec.Backup, Latency: processing}
	if cmd.Kind == ctlplane.CmdRecoverNode {
		ev.Kind = "node"
		ev.Latency = time.Duration(cmd.AtNS-cmd.LastSeenNS) + processing
	}
	s.publish(ev)
}

// SnapshotState serializes the applied command history — the replay-based
// snapshot a lagging replica (or a quorum-loss rebootstrap) restores from.
func (s *Server) SnapshotState() []byte {
	s.mu.Lock()
	cmds := append([][]byte(nil), s.appliedCmds...)
	s.mu.Unlock()
	return ctlplane.EncodeReplayLog(cmds)
}

// RestoreState replays a snapshot's command tail past this replica's own
// applied prefix (the log-prefix property guarantees the prefixes agree).
func (s *Server) RestoreState(data []byte) error {
	rl, err := ctlplane.DecodeReplayLog(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	n := len(s.appliedCmds)
	s.mu.Unlock()
	for i := n; i < len(rl.Commands); i++ {
		cmd, err := ctlplane.DecodeCommand(rl.Commands[i])
		if err != nil {
			return err
		}
		// A command's own error is part of the history being replayed (the
		// leader logged it when it happened); only decode failures abort.
		_, _ = s.apply(cmd, rl.Commands[i], false)
	}
	return nil
}

// mirrorCS sends the recovery's reconfiguration batch to every attached
// circuit-switch service, carrying the recovery's trace context so each
// crossbar reconfiguration lands as a child span of the controller's.
func (s *Server) mirrorCS(rec *controller.Recovery) {
	if len(s.csClients) == 0 || rec == nil {
		return
	}
	changes := []circuit.Change{{A: 0, B: 1}}
	ctx := obs.TraceContext{Trace: rec.Trace, Span: rec.Span, Proc: s.bus.Proc()}
	for _, cl := range s.csClients {
		if _, _, err := cl.reconfigure(ctx, changes); err != nil {
			s.logf("ctlnet: cs mirror: %v", err)
		}
	}
}

// emitRecovered publishes the wall-clock recovery-complete event for a
// recovery the server just drove: detection and circuit reconfiguration come
// from the controller's record (whose link detection is the reporting
// agent's measurement, when it sent one), the report phase is the measured
// server processing time, and T is the completion time on the process epoch.
// The controller already emitted the virtual-time span; this event is the
// wall-clock view of the same recovery, sharing its trace and span IDs so
// stitchers and the SLO watchdog see one recovery, not two.
func (s *Server) emitRecovered(rec *controller.Recovery, at, processing time.Duration) {
	if !s.bus.Enabled() {
		return
	}
	ev := obs.NewEvent(obs.KindRecoveryComplete, at+processing)
	ev.Wall = true
	ev.Detail = rec.Kind
	ev.Span = rec.Span
	ev.Trace = rec.Trace
	if len(rec.Failed) > 0 {
		ev.Switch = int32(rec.Failed[0])
	}
	if len(rec.Backup) > 0 {
		ev.Backup = int32(rec.Backup[0])
	}
	ev.Count = int32(len(rec.Failed))
	ev.Detection = rec.Detection
	ev.Report = processing
	ev.Reconfig = rec.Reconfig
	ev.Total = rec.Detection + processing + rec.Reconfig
	s.bus.Emit(ev)
}

// publish sends a recovery event to all subscribers, dropping broken ones.
func (s *Server) publish(ev RecoveryEvent) {
	payload := encodeRecovery(ev)
	s.mu.Lock()
	subs := append([]net.Conn(nil), s.subs...)
	s.mu.Unlock()
	var broken []net.Conn
	for _, c := range subs {
		if err := writeFrame(c, msgRecovery, payload); err != nil {
			broken = append(broken, c)
		}
	}
	if len(broken) > 0 {
		s.mu.Lock()
		kept := s.subs[:0]
		for _, c := range s.subs {
			isBroken := false
			for _, b := range broken {
				if c == b {
					isBroken = true
					break
				}
			}
			if isBroken {
				c.Close()
			} else {
				kept = append(kept, c)
			}
		}
		s.subs = kept
		s.gSubscribers.Set(int64(len(s.subs)))
		s.mu.Unlock()
	}
}
