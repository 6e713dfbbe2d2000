package ctlnet

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/tcpserve"
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
	// The flooding peers reach the same server's readers through a second
	// listener that shrinks each accepted connection's send buffer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flooded := tcpserve.Serve(smallSendListener{ln}, srv.serveConn, nil)
	defer flooded.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	var sent atomic.Int64
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Small buffers on both ends of the reply path make the unread
		// replies back up after a few hundred frames: the test is about a reader
		// blocked in a write, not about the CPU a long flood takes from
		// everybody.
		conn.(*net.TCPConn).SetReadBuffer(4096)
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

// smallSendListener gives every connection it accepts a 4 KB send buffer.
type smallSendListener struct{ net.Listener }

func (l smallSendListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		c.(*net.TCPConn).SetWriteBuffer(4096)
	}
	return c, err
}

// TestCloseReleasesIdleConnections: a cluster of one runs its server's
// accept loop and detector, its consensus node's loop and listener,
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
	const own = 4
	if !waitUntil(time.Second, func() bool { return runtime.NumGoroutine()-baseline <= own }) {
		t.Errorf("%d goroutines over the baseline on an idle replica, want %d (accept loop + detector + node loop + consensus listener)",
			runtime.NumGoroutine()-baseline, own)
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
