package ctlnet

import (
	"errors"
	"io"
	"net"
	"time"
)

// Every accepted connection has one reader goroutine, run by the server's
// listener shell (tcpserve). It blocks in frameReader.next on the runtime's
// netpoller and hands each frame to handleFrame until a read error, a handler
// error, or Server.Close severing the connection under it; the shell then
// closes the connection, a subscriber's included. A peer that stops reading
// its replies stalls only its own reader. The price is a goroutine stack and
// a frame buffer (about 5 KB) per connection; an Agent speaking for several
// co-located switches keeps the connection count below the switch count.

// srvConn is one accepted connection's state, touched only by its reader.
type srvConn struct {
	conn net.Conn

	// lastRedirect paces msgNotLeader replies on the keep-alive firehose.
	lastRedirect time.Time
}

// serveConn is the connection's reader loop.
func (s *Server) serveConn(conn net.Conn) {
	s.gConns.Add(1)
	defer s.gConns.Add(-1)
	sc := &srvConn{conn: conn}
	fr := frameReader{r: conn}
	for {
		typ, payload, err := fr.next()
		if err == nil {
			err = s.handleFrame(sc, typ, payload)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("ctlnet: conn %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}
