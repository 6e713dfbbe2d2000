package ctlplane

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sharebackup/internal/tcpserve"
)

const (
	// maxConsensusFrame bounds one consensus wire frame. Snapshots ride
	// inside frames, so this is generous; the replicated commands
	// themselves are tiny.
	maxConsensusFrame = 16 << 20
	// sendQueueDepth bounds each peer's outbound queue in frames: deep
	// enough for a storm's burst of appends, whose loss would cost a
	// nack-and-resend round.
	sendQueueDepth = 1024
	// sendQueueBytes bounds it in bytes, so a peer that stops reading pins
	// at most two full frames' worth of repeated snapshots.
	sendQueueBytes = 2 * maxConsensusFrame
	// dialTimeout bounds one outbound dial.
	dialTimeout = time.Second
)

// TCPTransport is a loopback/LAN mesh transport for a replica: it listens
// for consensus frames from peers and lazily dials outbound connections.
// Sends are best-effort and never block the caller: each peer has a bounded
// FIFO queue drained by its own writer goroutine, a full queue drops the
// message, and so does a failed dial or write (Raft retries by tick). A peer
// that stops reading therefore stalls only its own queue.
type TCPTransport struct {
	self int
	node func(m Message)

	srv    *tcpserve.Server // the listener and its read loops
	mu     sync.Mutex
	addrs  map[int]string // peer ID → address
	peers  map[int]*peerQueue
	closed bool // no writer starts or dials after Close

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // the writers
}

// peerQueue is one peer's outbound FIFO and the connection its writer
// goroutine owns (guarded by TCPTransport.mu, so Close can sever a writer
// blocked in Write).
type peerQueue struct {
	frames chan []byte
	bytes  atomic.Int64
	conn   net.Conn
}

// NewTCPTransport starts a transport for replica self, listening on
// addrs[self] and delivering inbound messages to deliver. addrs maps every
// replica ID to its consensus address.
func NewTCPTransport(self int, addrs map[int]string, deliver func(m Message)) (*TCPTransport, error) {
	ln, err := tcpserve.Listen(addrs[self])
	if err != nil {
		return nil, fmt.Errorf("ctlplane: transport listen: %w", err)
	}
	t := &TCPTransport{
		self:  self,
		addrs: addrs,
		node:  deliver,
		peers: make(map[int]*peerQueue),
		quit:  make(chan struct{}),
	}
	t.srv = tcpserve.Serve(ln, t.readLoop, nil)
	return t, nil
}

// Addr returns the transport's bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.srv.Addr() }

// SetPeers replaces the peer address map. Used when replicas bind ":0"
// listeners first and exchange bound addresses afterwards.
func (t *TCPTransport) SetPeers(addrs map[int]string) {
	t.mu.Lock()
	t.addrs = addrs
	t.mu.Unlock()
}

// Send implements Transport. It encodes the frame on the caller's goroutine
// (a message's entries alias the Raft log) and enqueues it for m.To's
// writer, dropping it if that queue is full.
func (t *TCPTransport) Send(m Message) {
	buf, err := json.Marshal(m)
	if err != nil {
		return
	}
	frame := make([]byte, 4+len(buf))
	binary.BigEndian.PutUint32(frame, uint32(len(buf)))
	copy(frame[4:], buf)

	t.mu.Lock()
	p := t.peers[m.To]
	if p == nil {
		if _, ok := t.addrs[m.To]; !ok || t.closed {
			t.mu.Unlock()
			return
		}
		p = &peerQueue{frames: make(chan []byte, sendQueueDepth)}
		t.peers[m.To] = p
		t.wg.Add(1)
		go t.writeLoop(m.To, p)
	}
	t.mu.Unlock()

	n := int64(len(frame))
	if p.bytes.Add(n) > sendQueueBytes {
		p.bytes.Add(-n)
		return
	}
	select {
	case p.frames <- frame:
	default:
		p.bytes.Add(-n)
	}
}

// writeLoop drains one peer's queue in order, dialing on demand. A frame
// that cannot be delivered (dial or write failure) is dropped, and the next
// frame redials.
func (t *TCPTransport) writeLoop(id int, p *peerQueue) {
	defer t.wg.Done()
	for {
		var frame []byte
		select {
		case <-t.quit:
			return
		case frame = <-p.frames:
		}
		p.bytes.Add(-int64(len(frame)))
		c := t.peerConn(id, p)
		if c == nil {
			continue
		}
		if _, err := c.Write(frame); err != nil {
			t.mu.Lock()
			p.conn = nil
			t.mu.Unlock()
			c.Close()
		}
	}
}

// peerConn returns the writer's connection to id, dialing one if there is
// none. nil means the dial failed or the transport closed.
func (t *TCPTransport) peerConn(id int, p *peerQueue) net.Conn {
	t.mu.Lock()
	c, addr, closed := p.conn, t.addrs[id], t.closed
	t.mu.Unlock()
	if c != nil || closed {
		return c
	}
	c, err := tcpserve.Dial(addr, dialTimeout)
	if err != nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return nil
	}
	p.conn = c
	return c
}

// readLoop decodes one inbound connection's frames and delivers them.
func (t *TCPTransport) readLoop(c net.Conn) {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxConsensusFrame {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		var m Message
		if err := json.Unmarshal(buf, &m); err != nil {
			return
		}
		select {
		case <-t.quit:
			return
		default:
		}
		t.node(m)
	}
}

// Close shuts the transport down: the listener, every connection, the read
// loops and the writers (a writer blocked on a peer that stopped reading is
// released by closing its connection). Safe to call more than once.
func (t *TCPTransport) Close() {
	t.closeOnce.Do(func() { close(t.quit) })
	t.srv.Close()
	t.mu.Lock()
	t.closed = true
	for _, p := range t.peers {
		if p.conn != nil {
			p.conn.Close()
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
}
