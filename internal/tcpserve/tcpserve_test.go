package tcpserve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// logRecorder collects logf lines.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *logRecorder) logf(format string, args ...any) {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// echo answers every byte it reads with the same byte.
func echo(c net.Conn) { io.Copy(c, c) }

// TestAcceptLoopRetriesTransientErrors: an Accept error on a running server
// is retried, not fatal — the loop behind a listener that fails twice still
// serves the connection that follows — and the streak is logged once.
func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.fails.Store(2)
	var log logRecorder
	srv := Serve(flaky, echo, log.logf)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{7}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil || b[0] != 7 {
		t.Fatalf("no service behind a listener that failed twice: read %v, %v", b[0], err)
	}
	if got := flaky.fails.Load(); got >= 0 {
		t.Errorf("listener still has %d failures to serve: the loop did not retry", got+1)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	logged := 0
	for _, line := range log.lines {
		if strings.Contains(line, "accept") {
			logged++
		}
	}
	if logged != 1 {
		t.Errorf("accept failures logged %d times, want once per streak: %q", logged, log.lines)
	}
}

// TestCloseSeversIdleSessions: sessions whose handlers sit in a read that
// only closing the connection ends must not hold Close open, on either
// network. Close severs them, returns once every handler has, and a second
// Close returns at once with the same result.
func TestCloseSeversIdleSessions(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", "mem:0"} {
		t.Run(addr, func(t *testing.T) { closeSeversIdleSessions(t, addr) })
	}
}

func closeSeversIdleSessions(t *testing.T, addr string) {
	ln, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var running, finished atomic.Int32
	srv := Serve(ln, func(c net.Conn) {
		running.Add(1)
		defer finished.Add(1)
		c.Read(make([]byte, 1))
	}, nil)
	const idle = 3
	var conns []net.Conn
	for i := 0; i < idle; i++ {
		c, err := Dial(ln.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	for deadline := time.Now().Add(2 * time.Second); running.Load() < idle; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d handlers running", running.Load(), idle)
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Close still blocked 2s after it began, with %d idle sessions", idle)
	}
	if got := finished.Load(); got != idle {
		t.Errorf("Close returned with %d of %d handlers finished", got, idle)
	}
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Error("an idle session survived Close")
		}
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := Dial(ln.Addr().String(), time.Second); err == nil {
		t.Error("the listener still accepts after Close")
	}
}

// TestMemAddresses: "mem:0" binds a fresh address each time, a bound address
// cannot be bound twice, and a dial reaches only a listener that is bound and
// accepting: one nobody listens on is refused, and one nobody accepts on
// times out.
func TestMemAddresses(t *testing.T) {
	a, err := Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr().String() == b.Addr().String() || !strings.HasPrefix(a.Addr().String(), "mem:") {
		t.Fatalf("mem:0 bound %v, then %v", a.Addr(), b.Addr())
	}
	if _, err := Listen(a.Addr().String()); err == nil {
		t.Errorf("%v bound twice", a.Addr())
	}
	if _, err := Dial(a.Addr().String(), 10*time.Millisecond); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Errorf("dial to a listener nobody accepts on: %v, want a timeout", err)
	}
	b.Close()
	if _, err := Dial(b.Addr().String(), 0); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Errorf("dial to a closed listener: %v, want refused", err)
	}
	if c, err := Listen(b.Addr().String()); err != nil {
		t.Errorf("a closed listener's address stays bound: %v", err)
	} else {
		c.Close()
	}
}
