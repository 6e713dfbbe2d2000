package ctlnet

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// TestStalledPeerDoesNotSilenceOthers: two peers flood leader queries and
// never read the answers, so the server's replies to them back up and block
// in writeReply until replyWriteTimeout. That may cost those two peers their
// connections and nothing else: sixteen live agents keep-aliving next to
// them must all stay alive. (When readers were multiplexed, a reader loop
// sat in that write with every other connection it served unread behind it,
// and the detector declared most of the sixteen dead.)
func TestStalledPeerDoesNotSilenceOthers(t *testing.T) {
	const interval = 20 * time.Millisecond
	nw, err := sbnet.New(sbnet.Config{K: 8, N: 4, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl := controller.New(nw, controller.Config{ProbeInterval: interval, Metrics: reg})
	srv := soloReplica(t, ctl, ServerConfig{Interval: interval, MissThreshold: 3, Obs: &obs.Bus{}}).Server

	for _, id := range agentSwitchIDs(nw, 8, 16) {
		a, err := Dial(srv.Addr(), id, interval)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if entries := reg.Gauge("ctlnet.detector_entries"); !waitUntil(2*time.Second, func() bool { return entries.Value() == 16 }) {
		t.Fatalf("ctlnet.detector_entries = %d, want all 16 agents registered", entries.Value())
	}

	// One write's worth of requests: 64 KB of 5-byte frames.
	var flood []byte
	for len(flood) < 64<<10 {
		flood = appendFrame(flood, msgLeaderReq, nil)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	var sent atomic.Int64
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Small buffers on both ends of the reply path make the unread
		// replies back up after a few hundred frames: the test is about a reader
		// blocked in a write, not about the CPU a long flood takes from
		// everybody.
		conn.(*net.TCPConn).SetReadBuffer(4096)
		var accepted net.Conn
		if !waitUntil(2*time.Second, func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			for c := range srv.conns {
				if c.RemoteAddr().String() == conn.LocalAddr().String() {
					accepted = c
				}
			}
			return accepted != nil
		}) {
			t.Fatal("server never accepted the flooding peer")
		}
		accepted.(*net.TCPConn).SetWriteBuffer(4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, err := conn.Write(flood)
				sent.Add(int64(n))
				if err != nil {
					return // closed below, or dropped by the server
				}
			}
		}()
	}

	ka := reg.Counter("ctlnet.keepalives")
	before := ka.Value()
	time.Sleep(3 * time.Second)
	if sent.Load() == 0 {
		t.Fatal("the flooding peers sent nothing")
	}
	if got := reg.Histogram("ctlnet.detect_overshoot_ns").Count(); got != 0 {
		t.Errorf("%d of 16 live, keep-aliving switches declared dead next to two stalled peers", got)
	}
	// 16 agents x 150 intervals; half of that is a generous floor.
	if got := ka.Value() - before; got < 16*75 {
		t.Errorf("%d keep-alives landed in 3s next to two stalled peers, want at least %d", got, 16*75)
	}
}

// flakyListener fails its first `fails` Accepts the way a process out of
// descriptors does, then behaves.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopRetriesTransientErrors: an Accept error on a running server
// is retried, not fatal — the loop behind a listener that fails twice still
// serves the connection that follows — and the streak is logged once.
func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	bus := &obs.Bus{}
	ring := obs.NewRing(64)
	bus.Attach(ring)
	srv := soloReplica(t, controller.New(nw, controller.Config{}), ServerConfig{Obs: bus}).Server
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	flaky := &flakyListener{Listener: ln}
	flaky.fails.Store(2)
	srv.wg.Add(1)
	go srv.acceptLoop(flaky)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, msgLeaderReq, nil); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if typ, _, err := readFrame(conn); err != nil || typ != msgLeaderInfo {
		t.Fatalf("no service behind a listener that failed twice: reply type %d, %v", typ, err)
	}
	if got := flaky.fails.Load(); got >= 0 {
		t.Errorf("listener still has %d failures to serve: the loop did not retry", got+1)
	}
	logged := 0
	for _, ev := range ring.Events() {
		if ev.Kind == obs.KindLog && strings.Contains(ev.Detail, "accept") {
			logged++
		}
	}
	if logged != 1 {
		t.Errorf("accept failures logged %d times, want once per streak", logged)
	}
}

// TestCloseReleasesIdleConnections: a cluster of one runs its server's
// accept loop and shard detectors, its consensus node's loop and listener,
// and nothing else (no background sampler). Close severs every connection and
// waits for its reader, so it returns promptly however many peers sit idle,
// and the replica leaves no goroutine behind.
func TestCloseReleasesIdleConnections(t *testing.T) {
	baseline := runtime.NumGoroutine()
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := soloReplica(t, controller.New(nw, controller.Config{Metrics: reg}), ServerConfig{Obs: &obs.Bus{}})
	srv := r.Server
	if own := len(srv.shards) + 3; !waitUntil(time.Second, func() bool { return runtime.NumGoroutine()-baseline <= own }) {
		t.Errorf("%d goroutines over the baseline on an idle replica, want %d (accept loop + %d shards + node loop + consensus listener)",
			runtime.NumGoroutine()-baseline, own, len(srv.shards))
	}
	const idle = 200
	for i := 0; i < idle; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	conns := reg.Gauge("ctlnet.connections")
	if !waitUntil(5*time.Second, func() bool { return conns.Value() == idle }) {
		t.Fatalf("ctlnet.connections = %d, want %d", conns.Value(), idle)
	}
	if got := runtime.NumGoroutine() - baseline; got < idle {
		t.Fatalf("%d goroutines over the baseline with %d connections: readers are not one per connection", got, idle)
	}

	t0 := time.Now()
	r.Kill()
	if took := time.Since(t0); took > time.Second {
		t.Errorf("Close with %d idle connections took %v, want under 1s", idle, took)
	}
	if got := conns.Value(); got != 0 {
		t.Errorf("ctlnet.connections = %d after Close", got)
	}
	// Close waited for every reader's last statement; give the runtime a
	// moment to retire the goroutines themselves.
	if !waitUntil(time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Errorf("%d goroutines after Close, %d before the server started", runtime.NumGoroutine(), baseline)
	}
}
