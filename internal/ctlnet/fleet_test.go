package ctlnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
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
	srv, err := NewServer("127.0.0.1:0", ctl, ServerConfig{
		Interval:      5 * time.Millisecond,
		MissThreshold: 1 << 20,
		Obs:           &obs.Bus{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g, err := DialGroup(srv.Addr(), []sbnet.SwitchID{1, 2, 3}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Inject garbage frames on the shared session: a short keep-alive, a
	// batch whose count disagrees with its pairs, and a short link report.
	var raw bytes.Buffer
	raw.Write(appendFrame(nil, msgKeepAlive, []byte{1, 2, 3}))
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

// TestBatchedApplyMatchesSequential is the differential check behind the
// batched consensus path: applying N recover commands one by one and
// applying them as one CmdBatch must yield identical per-switch roles and
// identical recovery sequences — the batch is a transport optimization, not
// a semantic change.
func TestBatchedApplyMatchesSequential(t *testing.T) {
	build := func() (*Server, *sbnet.Network, *controller.Controller) {
		nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
		if err != nil {
			t.Fatal(err)
		}
		ctl := controller.New(nw, controller.Config{ProbeInterval: 5 * time.Millisecond})
		srv, err := NewServer("127.0.0.1:0", ctl, ServerConfig{
			Interval: 5 * time.Millisecond,
			Obs:      &obs.Bus{},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv, nw, ctl
	}

	// A storm: two node failures in different pods plus one link failure,
	// timestamped in order.
	nwProbe, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	ids := agentSwitchIDs(nwProbe, 4, 3)
	cmds := [][]byte{
		ctlplane.Command{Kind: ctlplane.CmdRecoverNode, Switch: int32(ids[0]), LastSeenNS: 1e6, AtNS: 2e6}.Encode(),
		ctlplane.Command{Kind: ctlplane.CmdRecoverNode, Switch: int32(ids[1]), LastSeenNS: 1e6, AtNS: 3e6}.Encode(),
	}
	{
		ownPort, agg, aggPort := firstUpLink(nwProbe, ids[2], 4)
		cmds = append(cmds, ctlplane.Command{
			Kind:    ctlplane.CmdRecoverLink,
			ASwitch: int32(ids[2]), APort: int32(ownPort),
			BSwitch: int32(agg), BPort: int32(aggPort),
			AtNS: 4e6,
		}.Encode())
	}

	seqSrv, seqNet, seqCtl := build()
	for _, cmd := range cmds {
		if _, err := seqSrv.ApplyCommand(cmd); err != nil {
			t.Fatalf("sequential apply: %v", err)
		}
	}

	batSrv, batNet, batCtl := build()
	res, err := batSrv.ApplyReplicated(ctlplane.EncodeBatch(cmds))
	if err != nil {
		t.Fatalf("batched apply: %v", err)
	}
	results, ok := res.([]ctlplane.BatchResult)
	if !ok || len(results) != len(cmds) {
		t.Fatalf("batched apply returned %T (%d results), want %d", res, len(results), len(cmds))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch sub %d: %v", i, r.Err)
		}
		if r.Val.(*controller.Recovery) == nil {
			t.Fatalf("batch sub %d: nil recovery", i)
		}
	}

	for id := 0; id < seqNet.NumSwitches(); id++ {
		sid := sbnet.SwitchID(id)
		if got, want := batNet.Switch(sid).Role, seqNet.Switch(sid).Role; got != want {
			t.Errorf("switch %d role: batched %v, sequential %v", id, got, want)
		}
	}
	seqRecs, batRecs := seqCtl.Recoveries(), batCtl.Recoveries()
	if len(seqRecs) != len(batRecs) {
		t.Fatalf("recoveries: batched %d, sequential %d", len(batRecs), len(seqRecs))
	}
	for i := range seqRecs {
		if fmt.Sprint(seqRecs[i].Kind, seqRecs[i].Failed, seqRecs[i].Backup) !=
			fmt.Sprint(batRecs[i].Kind, batRecs[i].Failed, batRecs[i].Backup) {
			t.Errorf("recovery %d: batched %v/%v/%v, sequential %v/%v/%v", i,
				batRecs[i].Kind, batRecs[i].Failed, batRecs[i].Backup,
				seqRecs[i].Kind, seqRecs[i].Failed, seqRecs[i].Backup)
		}
	}

	// The batch is one history entry; a replica restored from the batched
	// server's snapshot converges to the same roles.
	nw3, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	ctl3 := controller.New(nw3, controller.Config{ProbeInterval: 5 * time.Millisecond})
	srv3, err := NewServer("127.0.0.1:0", ctl3, ServerConfig{Interval: 5 * time.Millisecond, Obs: &obs.Bus{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if err := srv3.RestoreState(batSrv.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < nw3.NumSwitches(); id++ {
		sid := sbnet.SwitchID(id)
		if got, want := nw3.Switch(sid).Role, batNet.Switch(sid).Role; got != want {
			t.Errorf("restored switch %d role = %v, want %v", id, got, want)
		}
	}
}

// TestBatchProposerFoldsConcurrentProposals drives concurrent proposals
// through a BatchProposer over a slow propose function and checks that they
// fold into fewer rounds with per-caller results intact.
func TestBatchProposerFoldsConcurrentProposals(t *testing.T) {
	bp := NewBatchProposer(func(data []byte, timeout time.Duration) (any, error) {
		time.Sleep(2 * time.Millisecond) // one "consensus round"
		cmd, err := ctlplane.DecodeCommand(data)
		if err != nil {
			return nil, err
		}
		if cmd.Kind != ctlplane.CmdBatch {
			return int(cmd.Switch), nil
		}
		out := make([]ctlplane.BatchResult, len(cmd.Sub))
		for i, sub := range cmd.Sub {
			sc, err := ctlplane.DecodeCommand(sub)
			if err != nil {
				out[i] = ctlplane.BatchResult{Err: err}
				continue
			}
			out[i] = ctlplane.BatchResult{Val: int(sc.Switch)}
		}
		return out, nil
	})

	const callers = 32
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			data := ctlplane.Command{Kind: ctlplane.CmdRecoverNode, Switch: int32(i)}.Encode()
			val, err := bp.Propose(data, time.Second)
			if err == nil && val.(int) != i {
				err = fmt.Errorf("caller %d got result %v", i, val)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := bp.Commands(); got != callers {
		t.Fatalf("commands = %d, want %d", got, callers)
	}
	if rounds := bp.Rounds(); rounds >= callers {
		t.Fatalf("no folding: %d rounds for %d commands", rounds, callers)
	}
}

// TestFleetSoak runs a 1k-agent fleet through one server and asserts the
// tentpole's goroutine contract: the server's steady-state goroutine count
// is O(shards + pollers), independent of agent count. Run under -race by
// `make soak-fleet`.
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
		Shards:    8,
		Pollers:   2,
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
	// Server footprint: shard loops + poller loops + recover loop + accept
	// loop + tsdb/etc. The bound is deliberately generous (slack for test
	// runtime goroutines) but far below anything O(agents): the old
	// goroutine-per-conn design would sit at >= 20 even with only 20 conns,
	// and at 1000 agents unbatched it was >= 1000.
	bound := cfg.Shards + cfg.Pollers + 24
	if res.ServerGoroutines > bound {
		t.Fatalf("server goroutines = %d, want <= %d (O(shards+pollers), agents=%d)",
			res.ServerGoroutines, bound, cfg.Agents)
	}
	t.Logf("fleet: %d agents on %d conns, %.0f ka/s, %d server goroutines",
		res.Agents, res.Conns, res.KAPerSec, res.ServerGoroutines)
}
