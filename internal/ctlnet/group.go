package ctlnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sharebackup/internal/sbnet"
)

// AgentGroup is the fleet-scale keep-alive client: many co-located switch
// agents (think one rack's worth of forwarding engines behind a management
// processor) share a single TCP session, and every flush tick their
// heartbeats leave as one msgKeepAliveBatch frame instead of len(ids)
// individual keep-alives. The server decodes one frame per batch into the
// detector's fan-in, so the per-heartbeat cost on both ends is a few dozen
// nanoseconds of buffer work rather than a syscall.
//
// An AgentGroup costs two goroutines total (flush ticker + reply drain),
// which is what makes 10k-agent client fleets drivable from one process.
type AgentGroup struct {
	ids      []sbnet.SwitchID
	interval time.Duration

	conn net.Conn
	buf  []byte // reused flush buffer: frames are appended, then one Write
	pay  []byte // reused batch payload staging

	mu     sync.Mutex
	closed bool

	quit chan struct{}
	done chan struct{}
}

// DialGroup connects one shared session for the given switch IDs: every ID
// is registered with its own hello (written back to back in one buffer),
// then the flush loop batches all their keep-alives at the given interval.
func DialGroup(addr string, ids []sbnet.SwitchID, interval time.Duration) (*AgentGroup, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("ctlnet: group interval %v must be positive", interval)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("ctlnet: group needs at least one switch ID")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlnet: group dial: %w", err)
	}
	g := &AgentGroup{
		ids:      append([]sbnet.SwitchID(nil), ids...),
		interval: interval,
		conn:     conn,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// Register the whole group in one write.
	buf := g.buf[:0]
	for _, id := range g.ids {
		buf = appendFrame(buf, msgHello, encodeHello(id))
	}
	g.buf = buf
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctlnet: group hello: %w", err)
	}
	go g.drainReplies()
	go g.flushLoop()
	return g, nil
}

// Len returns the number of agents riding this session.
func (g *AgentGroup) Len() int { return len(g.ids) }

// flushLoop emits one keep-alive batch per tick: the group's IDs are
// chunked at the wire format's pair capacity and each chunk leaves as a
// single frame from the reused buffer.
func (g *AgentGroup) flushLoop() {
	defer close(g.done)
	ticker := time.NewTicker(g.interval)
	defer ticker.Stop()
	var seq uint64
	for {
		select {
		case <-g.quit:
			return
		case <-ticker.C:
			seq++
			for off := 0; off < len(g.ids); off += maxKAPairs {
				end := off + maxKAPairs
				if end > len(g.ids) {
					end = len(g.ids)
				}
				g.pay = appendKeepAliveBatch(g.pay[:0], g.ids[off:end], seq)
				g.buf = appendFrame(g.buf[:0], msgKeepAliveBatch, g.pay)
				if _, err := g.conn.Write(g.buf); err != nil {
					return // fleet harness sessions don't reconnect
				}
			}
		}
	}
}

// drainReplies consumes server-to-group frames (table pushes for in-model
// IDs, redirects) so the server's reply writes never block; the fleet
// harness has no per-agent state to deliver them to.
func (g *AgentGroup) drainReplies() {
	fr := frameReader{r: g.conn}
	for {
		if _, _, err := fr.next(); err != nil {
			return
		}
	}
}

// Close stops the flush loop and closes the shared session.
func (g *AgentGroup) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	close(g.quit)
	<-g.done
	return g.conn.Close()
}
