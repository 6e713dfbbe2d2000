package ctlnet

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// TestVarzOverTCP exercises the metrics surface end to end: a failover over
// real sockets must show up in the counter snapshot fetched through the wire
// protocol, and in the recovery events captured by a sink on the server's
// bus. It also exercises the ServerConfig.Logf serialization contract —
// the unsynchronized slice append below is safe exactly because the server
// never invokes Logf concurrently (the race detector enforces this in
// `go test -race`).
func TestVarzOverTCP(t *testing.T) {
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(nw, controller.Config{ProbeInterval: 5 * time.Millisecond})
	bus := &obs.Bus{}
	ring := obs.NewRing(128)
	bus.Attach(ring)
	var lines []string // deliberately unsynchronized; Logf is serialized
	srv, err := NewServer("127.0.0.1:0", ctl, ServerConfig{
		Interval:      5 * time.Millisecond,
		MissThreshold: 3,
		Obs:           bus,
		Logf:          func(format string, args ...interface{}) { lines = append(lines, format) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	edge := nw.EdgeGroup(0).Slots()[0]
	agg := nw.AggGroup(0).Slots()[0]
	a, err := Dial(srv.Addr(), edge, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	time.Sleep(15 * time.Millisecond) // a few keep-alives

	if err := a.ReportLinkFailure(2, agg, 0); err != nil {
		t.Fatal(err)
	}
	wallRecovery := func() *obs.Event {
		for _, ev := range ring.Events() {
			if ev.Kind == obs.KindRecoveryComplete && ev.Wall {
				return &ev
			}
		}
		return nil
	}
	deadline := time.Now().Add(2 * time.Second)
	for wallRecovery() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no wall-clock recovery-complete event within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Unknown message types make the server log — from two connections at
	// once, so unserialized Logf calls would trip the race detector.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			for j := 0; j < 20; j++ {
				if err := writeFrame(conn, 0xF0, nil); err != nil {
					return
				}
			}
			time.Sleep(10 * time.Millisecond) // let the server drain the frames
		}()
	}
	wg.Wait()

	varz, err := fetchVarz(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	got := parseVarz(t, varz)
	for name, min := range map[string]int64{
		"ctlnet.hellos":              1,
		"ctlnet.keepalives":          1,
		"ctlnet.link_reports":        1,
		"ctlnet.log_lines":           1,
		"controller.link_recoveries": 1,
	} {
		if got[name] < min {
			t.Errorf("varz %s = %d, want >= %d\nfull snapshot:\n%s", name, got[name], min, varz)
		}
	}
	if _, ok := got["ctlnet.uptime_ns"]; !ok {
		t.Errorf("varz missing ctlnet.uptime_ns:\n%s", varz)
	}

	ev := wallRecovery()
	if ev.Detail != "link" {
		t.Errorf("recovery-complete detail = %q, want link", ev.Detail)
	}
	if ev.Total <= 0 || ev.Total != ev.Detection+ev.Report+ev.Reconfig {
		t.Errorf("recovery-complete phases don't sum: detection=%v report=%v reconfig=%v total=%v",
			ev.Detection, ev.Report, ev.Reconfig, ev.Total)
	}

	// Close agent then server (Close waits for every connection handler),
	// so reading the log slice below cannot race with a late append.
	a.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("Logf never invoked")
	}
}

func parseVarz(t *testing.T, varz string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(varz), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed varz line %q", line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("varz line %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	return out
}

// fetchVarz requests the server's text metrics snapshot (counters, gauges,
// uptime) over the wire protocol — the "/varz" dump of the control plane.
func fetchVarz(addr string) (string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ctlnet: varz dial: %w", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, msgVarzReq, nil); err != nil {
		return "", fmt.Errorf("ctlnet: varz request: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return "", fmt.Errorf("ctlnet: varz reply: %w", err)
	}
	if typ != msgVarz {
		return "", fmt.Errorf("ctlnet: varz reply: got message type %d", typ)
	}
	return string(payload), nil
}
