package ctlnet

import (
	"net"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

func newCSService(t *testing.T) (*CSService, *CSClient, *circuit.Switch) {
	t.Helper()
	sw, err := circuit.New("cs-test", circuit.Crosspoint, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewCSService("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	cli, err := DialCS(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return svc, cli, sw
}

func TestCSReconfigureOverTCP(t *testing.T) {
	_, cli, sw := newCSService(t)
	reconfig, rtt, err := cli.Reconfigure([]circuit.Change{{A: 0, B: 3}, {A: 1, B: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if reconfig != 70*time.Nanosecond {
		t.Errorf("reconfig delay = %v, want one crosspoint reset", reconfig)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Errorf("rtt = %v", rtt)
	}
	if sw.BOf(0) != 3 || sw.BOf(1) != 2 {
		t.Error("changes not applied to the crossbar")
	}
	// The Section 5.3 claim: the controller-to-circuit-switch leg is
	// sub-millisecond with an efficient implementation. Loopback TCP
	// comfortably demonstrates the order of magnitude.
	if rtt > 50*time.Millisecond {
		t.Errorf("loopback reconfiguration RTT %v implausibly slow", rtt)
	}
}

func TestCSReconfigureFailover(t *testing.T) {
	// The actual failover batch: move a B-side port from the failed
	// member's A-port to the backup's.
	_, cli, sw := newCSService(t)
	if _, _, err := cli.Reconfigure([]circuit.Change{{A: 0, B: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Reconfigure([]circuit.Change{{A: 5, B: 0}}); err != nil {
		t.Fatal(err)
	}
	if sw.AOf(0) != 5 {
		t.Errorf("B0 circuits to A%d, want the backup port 5", sw.AOf(0))
	}
	if sw.BOf(0) != circuit.Unconnected {
		t.Error("failed member's circuit survived")
	}
}

func TestCSReconfigureErrors(t *testing.T) {
	_, cli, sw := newCSService(t)
	// Out-of-range port: service reports the crossbar's error, session
	// stays usable.
	if _, _, err := cli.Reconfigure([]circuit.Change{{A: 99, B: 0}}); err == nil {
		t.Fatal("out-of-range change accepted")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error %v does not surface the crossbar failure", err)
	}
	if _, _, err := cli.Reconfigure([]circuit.Change{{A: 1, B: 1}}); err != nil {
		t.Fatalf("session unusable after an error: %v", err)
	}
	if sw.BOf(1) != 1 {
		t.Error("follow-up change not applied")
	}
	// Failed crossbar.
	sw.Fail()
	if _, _, err := cli.Reconfigure([]circuit.Change{{A: 2, B: 2}}); err == nil {
		t.Error("reconfiguration of failed crossbar accepted")
	}
}

func TestCSWireRoundTrip(t *testing.T) {
	in := []circuit.Change{{A: 1, B: 2}, {A: 3, B: circuit.Unconnected}}
	for _, ctx := range []obs.TraceContext{{}, {Trace: 7, Span: 2, Proc: "controller"}} {
		gotCtx, out, err := decodeCSReconfig(encodeCSReconfig(ctx, in))
		if err != nil {
			t.Fatal(err)
		}
		if gotCtx != ctx || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
			t.Fatalf("round trip = %+v %v", gotCtx, out)
		}
	}
	noCtx := make([]byte, 17)
	if _, _, err := decodeCSReconfig([]byte{1, 2}); err == nil {
		t.Error("truncated context accepted")
	}
	if _, _, err := decodeCSReconfig(append(noCtx, 1, 2)); err == nil {
		t.Error("truncated reconfig accepted")
	}
	if _, _, err := decodeCSReconfig(append(noCtx, 0, 0, 0, 2, 0)); err == nil {
		t.Error("length mismatch accepted")
	}
	// 2^29 changes promise 2^32 bytes, which wraps to 0 in 32 bits: four
	// bytes must not buy an 8 GiB allocation.
	if _, _, err := decodeCSReconfig(append(noCtx, 0x20, 0, 0, 0)); err == nil {
		t.Error("change count that overflows 32 bits accepted")
	}
	if d, err := decodeCSAck(encodeCSAck(70 * time.Nanosecond)); err != nil || d != 70*time.Nanosecond {
		t.Errorf("ack round trip = %v %v", d, err)
	}
	if _, err := decodeCSAck([]byte{1}); err == nil {
		t.Error("short ack accepted")
	}
}

// TestCSServiceRejectsRetiredTypes: the circuit-switch session's own former
// numbers (16-19, now agent-session types), the retired clock-sync probe
// and ack (10, 11) and the agent session's frames are answered with
// msgCSErr, never applied.
func TestCSServiceRejectsRetiredTypes(t *testing.T) {
	svc, _, sw := newCSService(t)
	for _, typ := range []byte{10, 11, 16, 17, 18, 19, msgLinkFail} {
		conn, err := net.Dial("tcp", svc.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// The untraced reconfig layout: one change, A3 -> B3.
		if err := writeFrame(conn, typ, []byte{0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 3}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		rtyp, _, err := readFrame(conn)
		conn.Close()
		if err != nil || rtyp != msgCSErr {
			t.Errorf("type %d: reply type %d, %v; want msgCSErr", typ, rtyp, err)
		}
	}
	if sw.BOf(3) != circuit.Unconnected {
		t.Error("a retired frame reconfigured the crossbar")
	}
}

// TestCSServiceCloseSeversIdleSessions: a client that dialed and then went
// quiet must not hold Close open — its session's handler sits in a read that
// only closing the connection ends.
func TestCSServiceCloseSeversIdleSessions(t *testing.T) {
	sw, err := circuit.New("cs-test", circuit.Crosspoint, 8)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewCSService("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One served request proves the session's handler is running.
	if err := writeFrame(conn, msgCSReconfig, encodeCSReconfig(obs.TraceContext{}, []circuit.Change{{A: 0, B: 1}})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != msgCSAck {
		t.Fatalf("reconfig reply type %d, %v; want msgCSAck", typ, err)
	}
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked 2s after it began, with one idle client")
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(conn); err == nil {
		t.Error("the idle session survived Close")
	}
}

// TestMirrorCSGivesUpOnSilentService: the leader mirrors a recovery to its
// circuit switches on its apply path, so a service that accepted the session
// and never answers costs it one bounded round trip, logged, not the
// consensus loop; and the next mirror dials a fresh session, which a service
// that answers again serves.
func TestMirrorCSGivesUpOnSilentService(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		for first := true; ; first = false {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				held <- c // never read, never answered
				continue
			}
			go func() {
				defer c.Close()
				for {
					if _, _, err := readFrame(c); err != nil {
						return
					}
					if err := writeFrame(c, msgCSAck, encodeCSAck(time.Microsecond)); err != nil {
						return
					}
				}
			}()
		}
	}()
	defer func() {
		select {
		case c := <-held:
			c.Close()
		default:
		}
	}()
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	bus := &obs.Bus{}
	ring := obs.NewRing(64)
	bus.Attach(ring)
	srv := soloReplica(t, controller.New(nw, controller.Config{}), ServerConfig{Obs: bus, CSAddrs: []string{ln.Addr().String()}}).Server
	mirrorLogs := func() (n int) {
		for _, ev := range ring.Events() {
			if ev.Kind == obs.KindLog && strings.Contains(ev.Detail, "cs mirror") {
				n++
			}
		}
		return n
	}
	for round, wantLogs := range []int{1, 1} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.mirrorCS(obs.TraceContext{})
		}()
		select {
		case <-done:
		case <-time.After(replyWriteTimeout + 5*time.Second):
			t.Fatalf("mirror %d still waiting on a circuit switch that never answers", round)
		}
		if got := mirrorLogs(); got != wantLogs {
			t.Fatalf("after mirror %d: %d failed mirrors logged, want %d", round, got, wantLogs)
		}
	}
}

func TestCSServiceConcurrentClients(t *testing.T) {
	svc, _, _ := newCSService(t)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			cli, err := DialCS(svc.Addr())
			if err != nil {
				done <- err
				return
			}
			defer cli.Close()
			for rep := 0; rep < 20; rep++ {
				if _, _, err := cli.Reconfigure([]circuit.Change{{A: i, B: (i + rep) % 8}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
