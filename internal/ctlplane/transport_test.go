package ctlplane

import (
	"net"
	"testing"
	"time"
)

// TestTransportPausedPeerDoesNotBlockOthers: a peer that accepts and never
// reads (a paused process, a full socket buffer) must cost only its own
// queue. Multi-megabyte snapshot frames pushed at it fill the socket
// buffers within the first few; Send must still return promptly, the
// healthy peer must still get its heartbeat, and Close must still stop the
// writer blocked on the paused peer.
func TestTransportPausedPeerDoesNotBlockOthers(t *testing.T) {
	paused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer paused.Close()
	// The sender's one writer to this peer dials once: a write that never
	// completes never fails, so nothing redials.
	held := make(chan net.Conn, 1)
	go func() {
		if c, err := paused.Accept(); err == nil {
			c.(*net.TCPConn).SetReadBuffer(64 << 10)
			held <- c // never read
		}
	}()
	defer func() {
		if len(held) > 0 {
			(<-held).Close()
		}
	}()

	got := make(chan Message, 16)
	healthy, err := NewTCPTransport(2, map[int]string{2: "127.0.0.1:0"}, func(m Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	tr, err := NewTCPTransport(0, map[int]string{0: "127.0.0.1:0"}, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPeers(map[int]string{0: tr.Addr(), 1: paused.Addr().String(), 2: healthy.Addr()})

	// 16 frames of ~2.7 MB each: far past what loopback buffers hold for a
	// reader that never reads, and past the queue's byte bound too.
	snap := make([]byte, 2<<20)
	pushed := make(chan time.Duration, 1)
	go func() {
		var worst time.Duration
		for i := 0; i < 16; i++ {
			t0 := time.Now()
			tr.Send(Message{Type: MsgSnap, From: 0, To: 1, Term: 1, SnapIndex: uint64(i + 1), SnapData: snap})
			worst = max(worst, time.Since(t0))
		}
		pushed <- worst
	}()
	select {
	case worst := <-pushed:
		// Encoding 2 MB as JSON is all a Send costs; under -race on a busy
		// host that is tens of milliseconds, never seconds.
		if worst > time.Second {
			t.Errorf("slowest Send to the paused peer took %v", worst)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked on a peer that stopped reading")
	}

	tr.Send(Message{Type: MsgApp, From: 0, To: 2, Term: 1})
	select {
	case m := <-got:
		if m.Type != MsgApp || m.From != 0 || m.To != 2 {
			t.Fatalf("healthy peer received %+v, want the heartbeat", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy peer never received its heartbeat")
	}

	closed := make(chan struct{})
	go func() {
		tr.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind the writer to the paused peer")
	}
}
