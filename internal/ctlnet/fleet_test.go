package ctlnet

import (
	"bytes"
	"fmt"
	"strings"
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
// session keeps working — it does not tear down the other switches an agent
// speaks for on the same connection.
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

	a, err := dialAgent([]string{srv.Addr()}, []sbnet.SwitchID{1, 2, 3}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Inject garbage frames on the shared session: a batch too short for its
	// count, a batch whose count disagrees with its pairs, and a short link
	// report.
	var raw bytes.Buffer
	raw.Write(appendFrame(nil, msgKeepAliveBatch, []byte{1}))
	raw.Write(appendFrame(nil, msgKeepAliveBatch, []byte{0, 9, 1, 2}))
	raw.Write(appendFrame(nil, msgLinkFail, []byte{5}))
	a.mu.Lock()
	_, err = a.conn.Write(raw.Bytes())
	a.mu.Unlock()
	if err != nil {
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

// TestFleetSoak runs a 1k-switch fleet through one server and asserts the
// goroutine contract: the server's steady-state goroutine count follows its
// connections (one reader each) and its one detector, never its switches.
// Runs under -race in `make race`.
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
		K:         28, // 1 050 switches
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
	// runtime's own goroutines. 1000 switches ride 20 agents' connections; a
	// goroutine per switch would sit at >= 1000.
	bound := res.Conns + 1 + 24
	if res.ServerGoroutines > bound {
		t.Fatalf("server goroutines = %d, want <= %d (connections+detector+slack; conns=%d agents=%d)",
			res.ServerGoroutines, bound, res.Conns, cfg.Agents)
	}
	t.Logf("fleet: %d agents on %d conns, %.0f ka/s, %d server goroutines",
		res.Agents, res.Conns, res.KAPerSec, res.ServerGoroutines)
}

// TestRunFleetRejectsAgentsBeyondModel: a fleet's switches are the model's,
// so asking for more than it holds fails by the field's name.
func TestRunFleetRejectsAgentsBeyondModel(t *testing.T) {
	_, err := RunFleet(FleetConfig{Agents: 31, K: 4}) // k=4 holds 30 switches
	if err == nil || !strings.Contains(err.Error(), "FleetConfig.Agents") {
		t.Fatalf("RunFleet with 31 agents at k=4: err = %v, want one naming FleetConfig.Agents", err)
	}
}

// BenchmarkFleetK48 holds the paper's scale on the one keep-alive client:
// every switch of a k=48 fabric (3 000) keep-aliving through one server, on
// an agent of its own or 50 to an agent, at 20, 5 and 1 ms. It reports the
// share of the offered keep-alives the server counted, and the server's
// goroutines. Run it with
//
//	go test -run '^$' -bench FleetK48 -benchtime 1x ./internal/ctlnet
func BenchmarkFleetK48(b *testing.B) {
	const switches = 3000
	for _, group := range []int{1, 50} {
		for _, interval := range []time.Duration{20 * time.Millisecond, 5 * time.Millisecond, time.Millisecond} {
			b.Run(fmt.Sprintf("group=%d/interval=%v", group, interval), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunFleet(FleetConfig{Agents: switches, GroupSize: group, Interval: interval, K: 48})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.KAPerSec*interval.Seconds()/switches, "delivered/offered")
					b.ReportMetric(float64(res.ServerGoroutines), "server-goroutines")
					b.ReportMetric(float64(res.Conns), "conns")
				}
			})
		}
	}
}
