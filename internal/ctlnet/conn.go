package ctlnet

import (
	"errors"
	"io"
	"net"
	"time"
)

// Every accepted connection has one reader goroutine. It blocks in
// frameReader.next on the runtime's netpoller, hands each frame to
// handleFrame, and leaves through dropConn — on a read error, a handler error,
// or Server.Close severing the connection under it. A peer that stops reading
// its replies stalls only its own reader. The price is a goroutine stack and a
// frame buffer (about 5 KB) per connection; an Agent speaking for several
// co-located switches keeps the connection count below the switch count.

// srvConn is one accepted connection's state, touched only by its reader.
type srvConn struct {
	conn net.Conn

	// lastRedirect paces msgNotLeader replies on the keep-alive firehose.
	lastRedirect time.Time

	// subscribed marks recovery-event subscribers; their conns are owned
	// by the publish path once set (dropConn then never closes them).
	subscribed bool
}

// serveConn is the connection's reader loop.
func (s *Server) serveConn(sc *srvConn) {
	defer s.wg.Done()
	fr := frameReader{r: sc.conn}
	for {
		typ, payload, err := fr.next()
		if err == nil {
			err = s.handleFrame(sc, typ, payload)
		}
		if err != nil {
			s.dropConn(sc, err)
			return
		}
	}
}

// dropConn finishes a connection: it unregisters it and closes it (unless a
// subscriber — the publish path owns those).
func (s *Server) dropConn(sc *srvConn, err error) {
	s.mu.Lock()
	delete(s.conns, sc.conn)
	s.mu.Unlock()
	s.gConns.Add(-1)
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.logf("ctlnet: conn %v: %v", sc.conn.RemoteAddr(), err)
	}
	if !sc.subscribed {
		sc.conn.Close()
	}
}
