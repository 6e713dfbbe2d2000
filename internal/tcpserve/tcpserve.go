// Package tcpserve is the one listener lifecycle behind the control plane's
// TCP servers: the agent-facing controller, the circuit-switch control
// service and the consensus transport. It accepts connections, runs one
// handler goroutine per connection, and on Close stops accepting, severs
// every live session and waits for the handlers. Framing and per-connection
// work stay with the handler.
package tcpserve

import (
	"net"
	"sync"
	"time"
)

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
