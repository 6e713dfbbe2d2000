package ctlnet

import (
	"bytes"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

func TestKeepAliveBatchWireRoundTrip(t *testing.T) {
	ids := []sbnet.SwitchID{0, 7, 511, 9999}
	p := appendKeepAliveBatch(nil, ids, 42)
	cnt, err := kaBatchCount(p)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != len(ids) {
		t.Fatalf("count = %d, want %d", cnt, len(ids))
	}
	for i, want := range ids {
		id, seq := kaBatchPair(p, i)
		if id != want || seq != 42 {
			t.Fatalf("pair %d = (%d, %d), want (%d, 42)", i, id, seq, want)
		}
	}
	// A frame whose pair bytes don't match its count header is malformed.
	if _, err := kaBatchCount(p[:len(p)-3]); err == nil {
		t.Error("truncated batch accepted")
	}
	if _, err := kaBatchCount(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestMalformedKeepAliveKeepsConnAlive is the wire-errors contract: a
// malformed keep-alive (or batch) payload is counted and skipped, and the
// session keeps working — it does not tear down the other 49 agents
// multiplexed behind the same connection.
func TestMalformedKeepAliveKeepsConnAlive(t *testing.T) {
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl := controller.New(nw, controller.Config{ProbeInterval: 5 * time.Millisecond, Metrics: reg})
	srv := soloReplica(t, ctl, ServerConfig{
		Interval:      5 * time.Millisecond,
		MissThreshold: 1 << 20,
		Obs:           &obs.Bus{},
	}).Server

	g, err := DialGroup(srv.Addr(), []sbnet.SwitchID{1, 2, 3}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Inject garbage frames on the shared session: a batch too short for its
	// count, a batch whose count disagrees with its pairs, and a short link
	// report.
	var raw bytes.Buffer
	raw.Write(appendFrame(nil, msgKeepAliveBatch, []byte{1}))
	raw.Write(appendFrame(nil, msgKeepAliveBatch, []byte{0, 9, 1, 2}))
	raw.Write(appendFrame(nil, msgLinkFail, []byte{5}))
	if _, err := g.conn.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}

	wireErrors := reg.Counter("ctlnet.wire_errors")
	deadline := time.Now().Add(2 * time.Second)
	for wireErrors.Value() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := wireErrors.Value(); got != 3 {
		t.Fatalf("ctlnet.wire_errors = %d, want 3", got)
	}

	// The session survived: keep-alive batches written after the garbage
	// still land.
	ka := reg.Counter("ctlnet.keepalives")
	before := ka.Value()
	deadline = time.Now().Add(2 * time.Second)
	for ka.Value() < before+3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ka.Value(); got < before+3 {
		t.Fatalf("keepalives stalled after wire errors: %d -> %d", before, got)
	}
}

// TestFleetSoak runs a 1k-agent fleet through one server and asserts the
// goroutine contract: the server's steady-state goroutine count follows its
// connections (one reader each) and its one detector, never its agents. Runs under
// -race in `make race`.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak skipped in -short")
	}
	cfg := FleetConfig{
		Agents:    1000,
		GroupSize: 50,
		Interval:  20 * time.Millisecond,
		Warmup:    200 * time.Millisecond,
		Duration:  500 * time.Millisecond,
	}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.KAs == 0 {
		t.Fatal("no keep-alives landed")
	}
	if res.WireErrors != 0 {
		t.Fatalf("wire errors on a clean fleet: %d", res.WireErrors)
	}
	if res.Batches == 0 {
		t.Fatal("no batched keep-alive frames seen")
	}
	// Server footprint: one reader per connection, the detector, the accept
	// loop, the consensus node's loop and listener, and slack for the test
	// runtime's own goroutines. 1000 agents ride 20 connections; a goroutine per agent
	// would sit at >= 1000.
	bound := res.Conns + 1 + 24
	if res.ServerGoroutines > bound {
		t.Fatalf("server goroutines = %d, want <= %d (connections+detector+slack; conns=%d agents=%d)",
			res.ServerGoroutines, bound, res.Conns, cfg.Agents)
	}
	t.Logf("fleet: %d agents on %d conns, %.0f ka/s, %d server goroutines",
		res.Agents, res.Conns, res.KAPerSec, res.ServerGoroutines)
}
