package ctlnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/obs"
)

// CSService exposes one circuit switch's bare-minimum control software
// (Section 5.1) on a TCP socket: it accepts reconfiguration batches, applies
// them to the crossbar, and acknowledges with the reconfiguration latency.
// The paper's availability argument rests on this software being tiny and
// receiving requests only when failures happen; this implementation is the
// measurable stand-in for the controller-to-circuit-switch leg of recovery.
type CSService struct {
	sw *circuit.Switch
	ln net.Listener
	// start is the service's private epoch; its events' T values are
	// durations since it, aligned offline via clock-sync offsets.
	start time.Time

	mu     sync.Mutex
	bus    *obs.Bus
	closed bool
	wg     sync.WaitGroup
}

// NewCSService starts a control service for the circuit switch on addr.
func NewCSService(addr string, sw *circuit.Switch) (*CSService, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlnet: cs service listen: %w", err)
	}
	s := &CSService{sw: sw, ln: ln, start: time.Now()}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetObserver attaches an event bus: traced reconfigurations emit
// circuit-reconfigured events on it (name the bus' process via SetProc so
// stitched traces can tell circuit switches apart).
func (s *CSService) SetObserver(bus *obs.Bus) {
	s.mu.Lock()
	s.bus = bus
	s.mu.Unlock()
}

// Addr returns the service's listen address.
func (s *CSService) Addr() string { return s.ln.Addr().String() }

// Close stops the service.
func (s *CSService) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *CSService) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *CSService) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case msgClockSync:
			t1, err := decodeClockSync(payload)
			if err != nil {
				_ = writeFrame(conn, msgCSErr, []byte(err.Error()))
				return
			}
			s.mu.Lock()
			proc := s.bus.Proc()
			s.mu.Unlock()
			ack := encodeClockSyncAck(t1, time.Since(s.start).Nanoseconds(), proc)
			if err := writeFrame(conn, msgClockSyncAck, ack); err != nil {
				return
			}
			continue
		case msgCSReconfig:
		default:
			_ = writeFrame(conn, msgCSErr, []byte(fmt.Sprintf("unexpected message type %d", typ)))
			return
		}
		ctx, changes, err := decodeCSReconfig(payload)
		if err != nil {
			_ = writeFrame(conn, msgCSErr, []byte(err.Error()))
			return
		}
		s.mu.Lock()
		bus := s.bus
		at := time.Since(s.start)
		var span uint64
		if ctx.Trace != 0 && bus.Enabled() {
			// Join the controller's recovery trace as a child span covering
			// this crossbar reconfiguration.
			bus.SetRemoteParent(ctx)
			span = bus.BeginSpan()
		}
		d, err := s.sw.Apply(changes)
		if span != 0 && err == nil {
			ev := obs.NewEvent(obs.KindCircuitReconfigured, at)
			ev.Wall = true
			ev.Span = span
			ev.Reconfig = d
			ev.Count = int32(len(changes))
			bus.Emit(ev)
		}
		if span != 0 {
			bus.EndSpan()
		}
		s.mu.Unlock()
		if err != nil {
			if werr := writeFrame(conn, msgCSErr, []byte(err.Error())); werr != nil {
				return
			}
			continue
		}
		if err := writeFrame(conn, msgCSAck, encodeCSAck(d)); err != nil {
			return
		}
	}
}

// CSClient is the controller-side handle to a circuit switch's control
// service.
type CSClient struct {
	mu   sync.Mutex
	conn net.Conn
}

// DialCS connects to a circuit-switch control service.
func DialCS(addr string) (*CSClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlnet: cs dial: %w", err)
	}
	return &CSClient{conn: conn}, nil
}

// Reconfigure applies a batch of circuit changes and returns the crossbar's
// reconfiguration delay plus the measured request round-trip time.
func (c *CSClient) Reconfigure(changes []circuit.Change) (reconfig time.Duration, rtt time.Duration, err error) {
	return c.reconfigure(obs.TraceContext{}, changes)
}

// reconfigure is Reconfigure carrying the caller's trace context (zero when
// untraced), so the service's reconfiguration event joins the recovery's
// trace.
func (c *CSClient) reconfigure(ctx obs.TraceContext, changes []circuit.Change) (reconfig time.Duration, rtt time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := time.Now()
	if err := writeFrame(c.conn, msgCSReconfig, encodeCSReconfig(ctx, changes)); err != nil {
		return 0, 0, err
	}
	typ, payload, err := readFrame(c.conn)
	if err != nil {
		return 0, 0, err
	}
	rtt = time.Since(t0)
	switch typ {
	case msgCSAck:
		d, err := decodeCSAck(payload)
		return d, rtt, err
	case msgCSErr:
		return 0, rtt, fmt.Errorf("ctlnet: cs service: %s", payload)
	default:
		return 0, rtt, fmt.Errorf("ctlnet: cs client got message type %d", typ)
	}
}

// SyncClock measures the clock offset between the caller's epoch and the
// service's: it returns offset such that t_local ~= t_service + offset,
// along with the request RTT and the service's process name. The caller
// passes its own epoch (the instant its event timestamps are relative to).
func (c *CSClient) SyncClock(epoch time.Time) (offset, rtt time.Duration, proc string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t1 := time.Since(epoch)
	if err := writeFrame(c.conn, msgClockSync, encodeClockSync(t1.Nanoseconds())); err != nil {
		return 0, 0, "", err
	}
	typ, payload, err := readFrame(c.conn)
	if err != nil {
		return 0, 0, "", err
	}
	t3 := time.Since(epoch)
	if typ != msgClockSyncAck {
		return 0, 0, "", fmt.Errorf("ctlnet: clock sync got message type %d", typ)
	}
	t1e, t2, proc, err := decodeClockSyncAck(payload)
	if err != nil {
		return 0, 0, "", err
	}
	if t1e != t1.Nanoseconds() {
		return 0, 0, "", fmt.Errorf("ctlnet: clock sync ack echoes t1=%d, sent %d", t1e, t1.Nanoseconds())
	}
	offset = time.Duration((t1.Nanoseconds()+t3.Nanoseconds())/2 - t2)
	return offset, t3 - t1, proc, nil
}

// Close tears the control session down.
func (c *CSClient) Close() error { return c.conn.Close() }

// encodeCSReconfig builds a msgCSReconfig payload: the trace context, a
// uint32 count, then count × (int32 A, int32 B).
func encodeCSReconfig(ctx obs.TraceContext, changes []circuit.Change) []byte {
	b := appendTraceContext(make([]byte, 0, 17+len(ctx.Proc)+4+8*len(changes)), ctx)
	var v [8]byte
	binary.BigEndian.PutUint32(v[:4], uint32(len(changes)))
	b = append(b, v[:4]...)
	for _, ch := range changes {
		binary.BigEndian.PutUint32(v[:4], uint32(int32(ch.A)))
		binary.BigEndian.PutUint32(v[4:], uint32(int32(ch.B)))
		b = append(b, v[:]...)
	}
	return b
}

func decodeCSReconfig(p []byte) (obs.TraceContext, []circuit.Change, error) {
	ctx, p, err := readTraceContext(p)
	if err != nil {
		return ctx, nil, err
	}
	if len(p) < 4 {
		return ctx, nil, fmt.Errorf("ctlnet: truncated reconfig")
	}
	n := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	// In 64 bits: n*8 in uint32 wraps for n >= 2^29 and would pass.
	if uint64(len(p)) != uint64(n)*8 {
		return ctx, nil, fmt.Errorf("ctlnet: reconfig promises %d changes, payload %d bytes", n, len(p))
	}
	changes := make([]circuit.Change, n)
	for i := range changes {
		changes[i].A = int(int32(binary.BigEndian.Uint32(p[8*i:])))
		changes[i].B = int(int32(binary.BigEndian.Uint32(p[8*i+4:])))
	}
	return ctx, changes, nil
}

func encodeCSAck(d time.Duration) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(d))
	return b[:]
}

func decodeCSAck(p []byte) (time.Duration, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("ctlnet: cs ack payload %d bytes, want 8", len(p))
	}
	return time.Duration(binary.BigEndian.Uint64(p)), nil
}
