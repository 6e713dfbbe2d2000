package ctlnet

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// TestMessageTypesAvoidRetiredNumbers reads the msg* constants from wire.go
// and checks that none reuses a retired number and no two share one: an old
// peer's frame of a retired type must never mean something new.
func TestMessageTypesAvoidRetiredNumbers(t *testing.T) {
	retired := map[uint64]bool{2: true, 3: true, 8: true, 9: true, 10: true, 11: true, 13: true, 14: true}
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[uint64]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "msg") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a literal number", name.Name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 8)
				if err != nil {
					t.Fatalf("%s = %s: %v", name.Name, lit.Value, err)
				}
				if retired[v] {
					t.Errorf("%s reuses retired message type %d", name.Name, v)
				}
				if prev, dup := owner[v]; dup {
					t.Errorf("%s and %s share message type %d", prev, name.Name, v)
				}
				owner[v] = name.Name
			}
		}
	}
	if owner[uint64(msgHello)] != "msgHello" || owner[uint64(msgCSErr)] != "msgCSErr" {
		t.Fatalf("msg* constants read from wire.go: %v; want the whole table, msgHello to msgCSErr", owner)
	}
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgHello, encodeHello(42)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgHello {
		t.Fatalf("type = %d", typ)
	}
	id, err := decodeHello(payload)
	if err != nil || id != 42 {
		t.Fatalf("hello = %v, %v", id, err)
	}

	// A dark agent's report carries the zero context and no detection.
	for _, ctx := range []obs.TraceContext{{}, {Trace: 9, Span: 3, Proc: "agent-1"}} {
		buf.Reset()
		if err := writeFrame(&buf, msgLinkFail, encodeLinkFail(ctx, 0, 1, 5, 2, 0)); err != nil {
			t.Fatal(err)
		}
		_, payload, err = readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		gotCtx, det, a, ap, b, bp, err := decodeLinkFail(payload)
		if err != nil || gotCtx != ctx || det != 0 || a != 1 || ap != 5 || b != 2 || bp != 0 {
			t.Fatalf("linkfail = %+v %v %v %v %v %v %v", gotCtx, det, a, ap, b, bp, err)
		}
	}

	ev := RecoveryEvent{Kind: "link", Failed: []sbnet.SwitchID{3, 4}, Backup: []sbnet.SwitchID{9}, Latency: 17 * time.Millisecond}
	back, err := decodeRecovery(encodeRecovery(ev))
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != "link" || len(back.Failed) != 2 || back.Failed[1] != 4 ||
		len(back.Backup) != 1 || back.Backup[0] != 9 || back.Latency != 17*time.Millisecond {
		t.Fatalf("recovery round trip = %+v", back)
	}
}

func TestWireDecodeErrors(t *testing.T) {
	if _, err := decodeHello([]byte{1, 2}); err == nil {
		t.Error("short hello accepted")
	}
	if id, err := decodeHello([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Errorf("hello with ID 0xFFFFFFFF accepted as switch %d", id)
	}
	if _, err := kaBatchCount(make([]byte, 5)); err == nil {
		t.Error("short keepalive batch accepted")
	}
	if _, _, _, _, _, _, err := decodeLinkFail(make([]byte, 17+3)); err == nil {
		t.Error("short linkfail accepted")
	}
	if _, err := decodeRecovery([]byte{0}); err == nil {
		t.Error("short recovery accepted")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // zero-length frame
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("zero-length frame accepted")
	}
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
}

// soloReplica starts a cluster of one around ctl, serving with cfg — a single
// controller, built the way every replica is — and kills it with the test.
func soloReplica(t testing.TB, ctl *controller.Controller, cfg ServerConfig) *Replica {
	t.Helper()
	rs, err := startReplicas([]*controller.Controller{ctl}, []ServerConfig{cfg}, 0, 0, ctl.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs[0].Kill)
	return rs[0]
}

func newServer(t *testing.T) (*Server, *sbnet.Network) {
	t.Helper()
	net, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(net, controller.Config{ProbeInterval: 5 * time.Millisecond})
	srv := soloReplica(t, ctl, ServerConfig{
		Interval:      5 * time.Millisecond,
		MissThreshold: 3,
	}).Server
	return srv, net
}

func TestNodeFailoverOverTCP(t *testing.T) {
	srv, net := newServer(t)

	mon, err := Subscribe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// Agents for every active switch in pod 0's edge group.
	var agents []*Agent
	for _, id := range net.EdgeGroup(0).Slots() {
		a, err := Dial(srv.Addr(), id, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
	}
	entries := srv.state.ctl.Metrics().Gauge("ctlnet.detector_entries")
	if !waitUntil(2*time.Second, func() bool { return entries.Value() == int64(len(agents)) }) {
		t.Fatalf("ctlnet.detector_entries = %d, want all %d agents registered", entries.Value(), len(agents))
	}

	// Kill one switch: its agent goes silent.
	victim := agents[0]
	victim.StopHeartbeats()
	t0 := time.Now()

	select {
	case ev, ok := <-mon.Events:
		if !ok {
			t.Fatalf("monitor closed: %v", mon.Err())
		}
		wall := time.Since(t0)
		if ev.Kind != "node" {
			t.Errorf("event kind = %q", ev.Kind)
		}
		if len(ev.Failed) != 1 || ev.Failed[0] != victim.ID {
			t.Errorf("failed = %v, want [%v]", ev.Failed, victim.ID)
		}
		if len(ev.Backup) != 1 {
			t.Errorf("backup = %v", ev.Backup)
		}
		// Detection threshold is 15 ms; the whole failover should land
		// well within a second even on a loaded machine.
		if wall > time.Second {
			t.Errorf("failover took %v", wall)
		}
		if ev.Latency <= 0 {
			t.Errorf("reported latency = %v", ev.Latency)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no recovery event within 2s")
	}

	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("network invariants after TCP failover: %v", err)
	}
	if net.Switch(victim.ID).Role != sbnet.RoleOffline {
		t.Error("victim not offline")
	}
}

func TestLinkFailureOverTCP(t *testing.T) {
	srv, net := newServer(t)
	ring := obs.NewRing(128)
	srv.bus.Attach(ring)
	defer srv.bus.Detach(ring)

	mon, err := Subscribe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	edge := net.EdgeGroup(1).Slots()[0]
	agg := net.AggGroup(1).Slots()[0]
	a, err := Dial(srv.Addr(), edge, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Edge slot 0's up-port 0 reaches agg slot 0 (rotation j=0). The report
	// returns once the server applied it.
	if err := a.ReportLinkFailureDetected(2, agg, 0, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, ok := <-mon.Events:
		if !ok {
			t.Fatalf("monitor closed: %v", mon.Err())
		}
		if ev.Kind != "link" {
			t.Errorf("kind = %q", ev.Kind)
		}
		if len(ev.Failed) != 2 {
			t.Errorf("link failover replaced %d switches, want both ends", len(ev.Failed))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no link recovery event within 2s")
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The server's wall-clock recovery-complete event carries the phases,
	// and they sum.
	var wall *obs.Event
	for _, ev := range ring.Events() {
		if ev.Kind == obs.KindRecoveryComplete && ev.Wall {
			wall = &ev
		}
	}
	if wall == nil || wall.Detail != "link" {
		t.Fatalf("no wall-clock link recovery-complete event: %+v", wall)
	}
	if wall.Total <= 0 || wall.Total != wall.Detection+wall.Report+wall.Reconfig {
		t.Errorf("recovery-complete phases don't sum: detection=%v report=%v reconfig=%v total=%v",
			wall.Detection, wall.Report, wall.Reconfig, wall.Total)
	}
}

// TestLinkReportOutsideFabricIsRefused: a link report naming a switch the
// fabric does not have is refused, not used as an index into the network
// model — which crashed the server on one frame.
func TestLinkReportOutsideFabricIsRefused(t *testing.T) {
	srv, net := newServer(t)
	a, err := Dial(srv.Addr(), net.EdgeGroup(0).Slots()[0], 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.ReportLinkFailureDetected(2, 1<<20, 0, 0); err == nil {
		t.Fatal("a report naming switch 1<<20 was accepted")
	}
	if err := a.ReportLinkFailureDetected(2, net.AggGroup(0).Slots()[0], 0, 0); err != nil {
		t.Fatalf("the server stopped serving after the refusal: %v", err)
	}
}

func TestTablePreloadOverTCP(t *testing.T) {
	srv, net := newServer(t)
	// An edge-group BACKUP switch gets the combined table too — that is
	// what makes it a hot standby (Section 4.3).
	backup := net.EdgeGroup(0).Members[2]
	a, err := Dial(srv.Addr(), backup, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.WaitTable(2 * time.Second) {
		t.Fatal("preloaded table never arrived")
	}
	a.mu.Lock()
	vt := a.table
	a.mu.Unlock()
	if vt == nil || vt.K != 4 || vt.Pod != 0 {
		t.Fatalf("table = %+v", vt)
	}
	if got, want := vt.Size(), 4/2+4*4/4; got != want {
		t.Errorf("table size = %d, want k/2 + k^2/4 = %d", got, want)
	}
	pushes := srv.state.ctl.Metrics().Counter("ctlnet.table_pushes")
	if !waitUntil(2*time.Second, func() bool { return pushes.Value() == 1 }) {
		t.Fatalf("ctlnet.table_pushes = %d after the spare's push, want 1", pushes.Value())
	}
	// Agg switches get no table push.
	agg, err := Dial(srv.Addr(), net.AggGroup(0).Members[0], 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if agg.WaitTable(50 * time.Millisecond) {
		t.Error("agg switch received an edge table")
	}
	if got := pushes.Value(); got != 1 {
		t.Errorf("ctlnet.table_pushes = %d after the agg's hello, want 1", got)
	}
}

func TestAgentValidation(t *testing.T) {
	srv, _ := newServer(t)
	if _, err := Dial(srv.Addr(), 0, 0); err == nil {
		t.Error("zero interval accepted")
	}
	a, err := Dial(srv.Addr(), 0, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a.StopHeartbeats()
	if err := a.ReportLinkFailureDetected(0, 1, 0, 0); err == nil {
		t.Error("report after stop accepted")
	}
	a.Close()
	a.Close() // double close must be safe
}

// TestDialWaitsForASlowLeader: a leader that answers msgLeaderReq in 700 ms,
// past the first round's 500 ms deadline, admits the agent on the second
// round, whose deadline has doubled.
func TestDialWaitsForASlowLeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if typ, _, err := readFrame(c); err != nil || typ != msgLeaderReq {
					return
				}
				time.Sleep(700 * time.Millisecond)
				if writeFrame(c, msgLeaderInfo, encodeLeaderInfo(true, ln.Addr().String())) == nil {
					io.Copy(io.Discard, c) // hellos and keep-alives
				}
			}()
		}
	}()
	a, err := DialCluster([]string{ln.Addr().String()}, 0, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("a leader answering in 700 ms was never found: %v", err)
	}
	a.Close()
}

func TestServerSkipsUnknownMessageTypes(t *testing.T) {
	// Forward compatibility: a newer agent speaking additional message
	// types must not lose its session — the length-prefixed frame lets the
	// server skip what it doesn't understand and keep serving.
	srv, _ := newServer(t)
	unknown := srv.state.ctl.Metrics().Counter("ctlnet.unknown_msgs")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Retired numbers — the single keep-alive (2), the untraced link report
	// (3), the wire registry dump and its reply (8, 9), the clock-sync probe
	// and its ack (10, 11), the time-series query (13) — may still arrive
	// from an old peer, and are skipped like any other type the server does
	// not know. After each, the session still answers a leader query.
	for i, typ := range []byte{0xEE, 2, 3, 8, 9, 10, 11, 13} {
		if err := writeFrame(conn, typ, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, msgLeaderReq, nil); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		rtyp, payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("session died after message type %d: %v", typ, err)
		}
		if leader, _, err := decodeLeaderInfo(payload); rtyp != msgLeaderInfo || err != nil || !leader {
			t.Fatalf("after message type %d got reply type %d (%x), want msgLeaderInfo from a leader", typ, rtyp, payload)
		}
		if got := unknown.Value(); got != int64(i+1) {
			t.Fatalf("ctlnet.unknown_msgs = %d after skipping %d frames", got, i+1)
		}
	}
}

func TestServerDropsProtocolViolations(t *testing.T) {
	srv, _ := newServer(t)
	// Malformed hello: terminated.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := writeFrame(conn2, msgHello, []byte{1}); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(conn2); err == nil {
		t.Error("server kept a session alive after a malformed hello")
	}
}

// TestHelloWithNegativeIDIsRefused: a hello whose ID does not fit a
// non-negative SwitchID is a malformed hello. The server drops that client
// and keeps serving: a well-formed agent still registers. The ID once reached
// the table lookup as switch -1 and panicked the server's reader goroutine,
// taking the whole process down.
func TestHelloWithNegativeIDIsRefused(t *testing.T) {
	srv, nw := newServer(t)
	bad, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := writeFrame(bad, msgHello, []byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(bad); err == nil {
		t.Error("server kept a session alive after a hello with ID 0xFFFFFFFF")
	}
	a, err := Dial(srv.Addr(), nw.EdgeGroup(0).Slots()[0], 5*time.Millisecond)
	if err != nil {
		t.Fatalf("well-formed agent after the bad hello: %v", err)
	}
	defer a.Close()
	if !a.WaitTable(2 * time.Second) {
		t.Error("well-formed agent after the bad hello got no table: not registered")
	}
}

// TestHelloOutsideFabricIsRefused: a switch ID is a switch of the server's
// fabric. A hello naming one past the model's last switch drops the session
// instead of reaching the detector's table or a table push, and the server
// keeps registering real switches.
func TestHelloOutsideFabricIsRefused(t *testing.T) {
	srv, nw := newServer(t)
	bad, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := writeFrame(bad, msgHello, encodeHello(sbnet.SwitchID(nw.NumSwitches()))); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(bad); err == nil {
		t.Errorf("server kept a session alive after a hello for switch %d of %d", nw.NumSwitches(), nw.NumSwitches())
	}
	a, err := Dial(srv.Addr(), nw.EdgeGroup(0).Slots()[0], 5*time.Millisecond)
	if err != nil {
		t.Fatalf("well-formed agent after the bad hello: %v", err)
	}
	defer a.Close()
	if !a.WaitTable(2 * time.Second) {
		t.Error("well-formed agent after the bad hello got no table: not registered")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := newServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestNoRecoveryForUnregisteredSwitch(t *testing.T) {
	// A switch that never sent Hello must not be failed over by the
	// detector, no matter how long the server runs.
	srv, net := newServer(t)
	mon, err := Subscribe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	time.Sleep(60 * time.Millisecond) // several detection periods
	select {
	case ev := <-mon.Events:
		t.Fatalf("spurious recovery event: %+v", ev)
	default:
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishDropsStalledSubscriber: publish runs on every replica's apply
// path, so a subscriber that stopped reading costs it one bounded write, not
// the consensus loop: the write times out and the subscriber is dropped.
func TestPublishDropsStalledSubscriber(t *testing.T) {
	srv, _ := newServer(t)
	stalled, peer := net.Pipe() // nobody reads peer
	defer peer.Close()
	srv.mu.Lock()
	srv.subs = append(srv.subs, stalled)
	srv.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.publish(RecoveryEvent{Kind: "node", Failed: []sbnet.SwitchID{1}, Backup: []sbnet.SwitchID{2}})
	}()
	select {
	case <-done:
	case <-time.After(replyWriteTimeout + 5*time.Second):
		t.Fatal("publish still blocked on a subscriber that never reads")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.subs) != 0 {
		t.Errorf("%d subscribers left after a failed write, want 0", len(srv.subs))
	}
}

// TestSubscribeDuringPublish: a subscriber joins the publish list only once
// its ack is written, so a recovery published meanwhile can never reach it
// ahead of the ack and fail the Subscribe.
func TestSubscribeDuringPublish(t *testing.T) {
	srv, _ := newServer(t)
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for {
			select {
			case <-stop:
				return
			default:
				srv.publish(RecoveryEvent{Kind: "node", Failed: []sbnet.SwitchID{1}, Backup: []sbnet.SwitchID{2}})
			}
		}
	}()
	defer func() { close(stop); <-published }()
	for i := 0; i < 200; i++ {
		mon, err := Subscribe(srv.Addr())
		if err != nil {
			t.Fatalf("subscribe %d while publishing: %v", i, err)
		}
		mon.Close()
	}
}

// TestSubscribeReturnsJoined: Subscribe returns only once the server
// publishes to the new subscriber, so the next recovery reaches it. A
// publish between the ack and the join reaches every monitor but the new
// one (under CPU load, TestOneRecoveryCompletePerLiveRecovery's "published
// 1 of 3"). Holding the subscriber list's lock holds the join: Subscribe
// must wait for it.
func TestSubscribeReturnsJoined(t *testing.T) {
	srv, _ := newServer(t)
	type result struct {
		mon *Monitor
		err error
	}
	done := make(chan result, 1)
	srv.mu.Lock()
	go func() {
		mon, err := Subscribe(srv.Addr())
		done <- result{mon, err}
	}()
	select {
	case <-done:
		srv.mu.Unlock()
		t.Fatal("Subscribe returned while the server could not yet add it to its subscribers")
	case <-time.After(200 * time.Millisecond):
	}
	srv.mu.Unlock()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.mon.Close()
	srv.publish(RecoveryEvent{Kind: "node", Failed: []sbnet.SwitchID{1}, Backup: []sbnet.SwitchID{2}})
	select {
	case ev, ok := <-r.mon.Events:
		if !ok || ev.Kind != "node" {
			t.Fatalf("monitor got %+v (open %v), want the node recovery", ev, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first recovery published after Subscribe never reached the monitor")
	}
}

func TestServerCloseUnblocksMonitor(t *testing.T) {
	srv, _ := newServer(t)
	mon, err := Subscribe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case _, ok := <-mon.Events:
		if ok {
			t.Error("unexpected event")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("monitor not unblocked by server close")
	}
}
