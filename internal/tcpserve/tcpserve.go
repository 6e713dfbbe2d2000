// Package tcpserve is the control plane's one network. Every listen and
// dial of the agent-facing controller, the circuit-switch control service and
// the consensus transport goes through Listen and Dial, whose address picks
// the network: TCP, or for a "mem:" address an in-memory network of net.Pipe
// conns that touches no socket (a testing/synctest bubble runs a whole
// cluster on it, on fake time). Serve is the one listener lifecycle: it runs
// one handler goroutine per connection, and Close stops accepting, severs
// every live session and waits for the handlers. Framing and per-connection
// work stay with the handler.
package tcpserve

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// memPrefix marks an in-memory address; "mem:0" binds a fresh "mem:N".
const memPrefix = "mem:"

// mem holds the in-memory network's bound listeners, by address.
var mem = struct {
	sync.Mutex
	last int
	lns  map[string]*memListener
}{lns: make(map[string]*memListener)}

// Listen listens on addr: a TCP address, or a "mem:" one.
func Listen(addr string) (net.Listener, error) {
	if !strings.HasPrefix(addr, memPrefix) {
		return net.Listen("tcp", addr)
	}
	mem.Lock()
	defer mem.Unlock()
	if addr == memPrefix+"0" {
		mem.last++
		addr = memPrefix + strconv.Itoa(mem.last)
	}
	if mem.lns[addr] != nil {
		return nil, fmt.Errorf("tcpserve: listen %s: address in use", addr)
	}
	l := &memListener{addr: addr, conns: make(chan net.Conn), done: make(chan struct{})}
	mem.lns[addr] = l
	return l, nil
}

// Dial connects to addr, giving up after timeout (0: no limit). An
// in-memory dial completes when the listener accepts it.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if !strings.HasPrefix(addr, memPrefix) {
		return net.DialTimeout("tcp", addr, timeout)
	}
	mem.Lock()
	l := mem.lns[addr]
	mem.Unlock()
	var expired <-chan time.Time
	if timeout > 0 {
		expired = time.After(timeout)
	}
	if l != nil {
		c, s := net.Pipe()
		select {
		case l.conns <- s:
			return c, nil
		case <-l.done:
		case <-expired:
			return nil, fmt.Errorf("tcpserve: dial %s: i/o timeout", addr)
		}
	}
	return nil, fmt.Errorf("tcpserve: dial %s: connection refused", addr)
}

// memListener hands the far end of each dialled pipe to Accept.
type memListener struct {
	addr  string
	conns chan net.Conn
	done  chan struct{} // closed by Close
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	mem.Lock()
	defer mem.Unlock()
	if mem.lns[l.addr] == l {
		delete(mem.lns, l.addr)
		close(l.done)
	}
	return nil
}

// Addr names the listener's network "mem"; a UnixAddr carries any name.
func (l *memListener) Addr() net.Addr { return &net.UnixAddr{Name: l.addr, Net: "mem"} }

// Server serves one listener.
type Server struct {
	ln     net.Listener
	handle func(net.Conn)
	logf   func(format string, args ...any)

	quit      chan struct{}
	closeOnce sync.Once
	closeErr  error

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // live sessions, severed by Close
	closed bool

	// wg counts the accept loop and every handler: the loop holds its count
	// while it adds a handler's, so no Add races Close's Wait.
	wg sync.WaitGroup
}

// Serve starts accepting on ln. Each connection runs handle on its own
// goroutine and is closed when handle returns. logf, if non-nil, hears of
// Accept failures.
func Serve(ln net.Listener, handle func(net.Conn), logf func(format string, args ...any)) *Server {
	s := &Server{
		ln:     ln,
		handle: handle,
		logf:   logf,
		quit:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Close stops accepting, severs every live session and waits for the accept
// loop and every handler. Later calls wait for the first and return its
// result.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.mu.Lock()
		s.closed = true
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.closeErr = s.ln.Close()
		s.wg.Wait()
	})
	return s.closeErr
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// acceptLoop accepts until Close. An Accept error on a running server
// (EMFILE, ECONNABORTED) is retried with a capped backoff, as net/http does,
// and logged once per streak: a listener that stopped accepting would stay
// open, and its peers' connections would pile up in its backlog unserved.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if backoff == 0 {
				if s.logf != nil {
					s.logf("tcpserve: accept on %v: %v; retrying", s.ln.Addr(), err)
				}
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
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// serve runs the handler, then retires and closes its connection.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	s.handle(conn)
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}
