package ctlnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// scanDetector is the detector the expiry queue replaced, kept only as a
// test reference: a map of last-seen stamps, range-scanned for silence.
type scanDetector struct {
	deadline time.Duration
	lastSeen map[sbnet.SwitchID]time.Duration
}

func (d *scanDetector) touch(id sbnet.SwitchID, at time.Duration) {
	if last, ok := d.lastSeen[id]; !ok || at > last {
		d.lastSeen[id] = at
	}
}

// scan declares (and forgets) every switch silent for the deadline at now,
// sorted into expiry order so it compares with the queue's output.
func (d *scanDetector) scan(now time.Duration) []deadCandidate {
	var dead []deadCandidate
	for id, last := range d.lastSeen {
		if now-last >= d.deadline {
			dead = append(dead, deadCandidate{id: id, lastSeen: last})
			delete(d.lastSeen, id)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].lastSeen < dead[j].lastSeen })
	return dead
}

// TestExpiryQueueMatchesScan drives the queue and the scan-everything
// reference through seeded random schedules of keep-alives, silences and
// clock advances, expiring both at every instant: they must declare the same
// (id, lastSeen) pairs, the queue in expiry order and never early.
func TestExpiryQueueMatchesScan(t *testing.T) {
	const size = 48
	const deadline = 30 * time.Millisecond
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newExpiryQueue(size, deadline)
		ref := &scanDetector{deadline: deadline, lastSeen: make(map[sbnet.SwitchID]time.Duration)}
		silent := make([]bool, size)
		now := time.Duration(0)
		declared := 0
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 70: // a keep-alive, now and then stamped a little in the past
				id := sbnet.SwitchID(rng.Intn(size))
				if silent[id] {
					break
				}
				at := now
				if rng.Intn(8) == 0 {
					at -= time.Duration(rng.Intn(3)) * time.Millisecond
				}
				q.touch(id, at)
				ref.touch(id, at)
			case r < 75:
				silent[rng.Intn(size)] = true
			case r < 78:
				silent[rng.Intn(size)] = false
			default:
				now += time.Duration(rng.Intn(4000)) * time.Microsecond
			}
			got, want := q.expire(now), ref.scan(now)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d at %v: queue declared %v, scan declared %v", seed, step, now, got, want)
			}
			for i, c := range got {
				if now < c.lastSeen+deadline {
					t.Fatalf("seed %d step %d: %d declared at %v, before lastSeen %v + deadline", seed, step, c.id, now, c.lastSeen)
				}
				if i > 0 && c.lastSeen < got[i-1].lastSeen {
					t.Fatalf("seed %d step %d: declared out of expiry order: %v", seed, step, got)
				}
				// Equal stamps may come out in either order; compare as sets
				// within a tie by checking membership in the reference.
				found := false
				for _, w := range want {
					if w == c {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d step %d: queue declared %v, scan did not (%v)", seed, step, c, want)
				}
			}
			declared += len(got)
			if q.len() != len(ref.lastSeen) {
				t.Fatalf("seed %d step %d: queue tracks %d switches, scan %d", seed, step, q.len(), len(ref.lastSeen))
			}
			if at, ok := q.nextExpiry(); ok && at <= now {
				t.Fatalf("seed %d step %d: head expiry %v not after now %v once expired", seed, step, at, now)
			}
		}
		if declared == 0 {
			t.Fatalf("seed %d: schedule declared nothing", seed)
		}
	}
}

func TestExpiryQueueCases(t *testing.T) {
	const deadline = 10 * time.Millisecond
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ids := func(cs []deadCandidate) []sbnet.SwitchID {
		var out []sbnet.SwitchID
		for _, c := range cs {
			out = append(out, c.id)
		}
		return out
	}
	equal := slices.Equal[[]sbnet.SwitchID]

	t.Run("re-touch of the head moves it to the back", func(t *testing.T) {
		q := newExpiryQueue(4, deadline)
		q.touch(0, ms(0))
		q.touch(1, ms(1))
		q.touch(2, ms(2))
		if gap := q.touch(0, ms(5)); gap != ms(5) {
			t.Errorf("re-touch gap = %v, want 5ms", gap)
		}
		if at, _ := q.nextExpiry(); at != ms(11) {
			t.Errorf("next expiry = %v, want switch 1's 11ms", at)
		}
		if got := ids(q.expire(ms(20))); !equal(got, []sbnet.SwitchID{1, 2, 0}) {
			t.Errorf("expiry order = %v, want [1 2 0]", got)
		}
	})

	t.Run("unknown and out-of-range ids", func(t *testing.T) {
		q := newExpiryQueue(4, deadline)
		if gap := q.touch(3, ms(1)); gap != 0 || q.len() != 1 {
			t.Errorf("first touch: gap %v len %d, want 0 and 1", gap, q.len())
		}
		q.touch(4, ms(1))
		q.touch(-1, ms(1))
		q.rearm(9, ms(1))
		if q.len() != 1 {
			t.Errorf("out-of-range touches registered: len %d", q.len())
		}
	})

	t.Run("several entries expire at one instant", func(t *testing.T) {
		q := newExpiryQueue(8, deadline)
		for id := sbnet.SwitchID(0); id < 5; id++ {
			q.touch(id, ms(3))
		}
		q.touch(5, ms(4))
		if got := q.expire(ms(13) - 1); len(got) != 0 {
			t.Errorf("declared %v before the deadline", got)
		}
		if got := ids(q.expire(ms(13))); !equal(got, []sbnet.SwitchID{0, 1, 2, 3, 4}) {
			t.Errorf("at the deadline declared %v, want [0 1 2 3 4]", got)
		}
		if at, ok := q.nextExpiry(); !ok || at != ms(14) {
			t.Errorf("next expiry = %v %v, want 14ms", at, ok)
		}
		// Each dead switch is handed off once.
		if got := q.expire(ms(13)); len(got) != 0 {
			t.Errorf("re-declared %v", got)
		}
	})

	t.Run("a stale stamp neither rewinds nor reorders", func(t *testing.T) {
		q := newExpiryQueue(4, deadline)
		q.touch(0, ms(5))
		q.touch(1, ms(6))
		q.touch(0, ms(4)) // older than held: ignored
		q.touch(2, ms(3)) // older than the tail: sorted in, becomes the head
		if at, _ := q.nextExpiry(); at != ms(13) {
			t.Errorf("next expiry = %v, want switch 2's 13ms", at)
		}
		if got := ids(q.expire(ms(30))); !equal(got, []sbnet.SwitchID{2, 0, 1}) {
			t.Errorf("expiry order = %v, want [2 0 1]", got)
		}
	})

	t.Run("a lapsed entry leaves the queue and re-registers", func(t *testing.T) {
		q := newExpiryQueue(4, deadline)
		q.touch(1, ms(0))
		q.rearm(1, ms(2)) // still queued: keeps its own deadline
		if got := ids(q.expire(ms(10))); !equal(got, []sbnet.SwitchID{1}) {
			t.Fatalf("declared %v, want [1]", got)
		}
		q.lapse(1)
		if _, ok := q.nextExpiry(); ok || q.len() != 0 {
			t.Fatal("a lapsed entry still pins the queue")
		}
		// Promotion restarts its deadline...
		q.rearm(1, ms(12))
		if at, ok := q.nextExpiry(); !ok || at != ms(22) {
			t.Fatalf("after rearm next expiry = %v %v, want 22ms", at, ok)
		}
		if got := ids(q.expire(ms(22))); !equal(got, []sbnet.SwitchID{1}) {
			t.Fatalf("rearmed entry declared %v, want [1]", got)
		}
		// ...once: it was handed off, not lapsed, so a second rearm is moot,
		// and a keep-alive registers it afresh.
		q.rearm(1, ms(23))
		if q.len() != 0 {
			t.Fatal("rearm revived a handed-off entry")
		}
		if gap := q.touch(1, ms(40)); gap != 0 || q.len() != 1 {
			t.Fatalf("re-registration: gap %v len %d", gap, q.len())
		}
		// A switch that never had an agent is not armed by a promotion.
		q.rearm(2, ms(40))
		if q.len() != 1 {
			t.Fatal("rearm registered a switch that was never seen")
		}
	})
}

// detectorServer is a cluster of one with its own registry and no agents.
func detectorServer(t *testing.T, n int, interval time.Duration) (*Server, *sbnet.Network, *obs.Registry) {
	t.Helper()
	nw, err := sbnet.New(sbnet.Config{K: 4, N: n, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl := controller.New(nw, controller.Config{ProbeInterval: interval, Metrics: reg})
	return soloReplica(t, ctl, ServerConfig{Interval: interval, MissThreshold: 3, Obs: &obs.Bus{}}).Server, nw, reg
}

// hear stamps a keep-alive from id at the synthetic instant at, as a
// connection reader would.
func hear(srv *Server, id sbnet.SwitchID, at time.Duration) {
	srv.det.mu.Lock()
	srv.det.pending = append(srv.det.pending, kaRecord{id: id, at: at})
	srv.det.mu.Unlock()
}

// TestIdleDetectorWakesEveryHalfInterval: with nothing to watch the detector
// re-arms half an interval ahead per wake — two wakes per interval, not a
// busy loop.
func TestIdleDetectorWakesEveryHalfInterval(t *testing.T) {
	const interval = 5 * time.Millisecond
	srv, _, reg := detectorServer(t, 1, interval)
	srv.Close() // the loop is gone: the test runs its wakes by hand
	wakes := reg.Counter("ctlnet.detector_wakes")
	before := wakes.Value()
	at := time.Second
	for i := 0; i < 20; i++ {
		dead, next := srv.wake(at, at)
		if len(dead) != 0 {
			t.Fatalf("idle detector declared %v", dead)
		}
		if next != at+interval/2 {
			t.Fatalf("idle wake at %v re-armed for %v, want %v", at, next, at+interval/2)
		}
		at = next
	}
	if got := wakes.Value() - before; got != 20 {
		t.Errorf("ctlnet.detector_wakes rose by %d over 20 wakes", got)
	}
	if got := reg.Gauge("ctlnet.detector_entries").Value(); got != 0 {
		t.Errorf("ctlnet.detector_entries = %d on an idle server", got)
	}
}

// TestSilentSpareLapsesAndPromotionRearms covers the two halves of the
// off-duty rule: a silent backup leaves the detector instead of lingering in
// it, and if that backup is later promoted while its agent is still silent it
// is declared dead within one deadline of the promotion.
func TestSilentSpareLapsesAndPromotionRearms(t *testing.T) {
	const interval = 5 * time.Millisecond
	const deadline = 3 * interval
	srv, nw, reg := detectorServer(t, 2, interval)
	mon, err := Subscribe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	group := nw.EdgeGroup(0)
	var spares []sbnet.SwitchID
	for _, id := range group.Members {
		if nw.Switch(id).Role == sbnet.RoleBackup {
			spares = append(spares, id)
		}
	}
	if len(spares) != 2 {
		t.Fatalf("group has %d spares, want 2", len(spares))
	}
	entries := reg.Gauge("ctlnet.detector_entries")
	for _, id := range spares {
		a, err := Dial(srv.Addr(), id, interval)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		a.StopHeartbeats() // registered by its hello, silent ever after
	}
	active, err := Dial(srv.Addr(), group.Slots()[0], interval)
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()

	// The silent spares time out with nothing to recover: no event, and
	// they stop occupying the detector.
	if !waitUntil(2*time.Second, func() bool { return entries.Value() == 1 }) {
		t.Fatalf("ctlnet.detector_entries = %d, want 1 (only the live active switch)", entries.Value())
	}
	select {
	case ev := <-mon.Events:
		t.Fatalf("silent spare produced a recovery: %+v", ev)
	case <-time.After(2 * deadline):
	}

	// The active switch dies; a silent spare takes over and must itself be
	// declared dead within a deadline of that promotion.
	active.StopHeartbeats()
	first := nextEvent(t, mon)
	if first.Kind != "node" || len(first.Failed) != 1 || first.Failed[0] != active.ID {
		t.Fatalf("first recovery = %+v, want node failover of %d", first, active.ID)
	}
	promotedAt := time.Now()
	second := nextEvent(t, mon)
	if second.Kind != "node" || len(second.Failed) != 1 || second.Failed[0] != first.Backup[0] {
		t.Fatalf("second recovery = %+v, want node failover of the promoted spare %d", second, first.Backup[0])
	}
	if took := time.Since(promotedAt); took > deadline+time.Second {
		t.Errorf("promoted silent spare declared dead after %v", took)
	}
	if second.Latency < deadline {
		t.Errorf("promoted spare's detection latency %v is under the deadline %v", second.Latency, deadline)
	}
}

func nextEvent(t *testing.T, mon *Monitor) RecoveryEvent {
	t.Helper()
	select {
	case ev, ok := <-mon.Events:
		if !ok {
			t.Fatalf("monitor closed: %v", mon.Err())
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("no recovery event within 2s")
	}
	return RecoveryEvent{}
}

func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// slowCluster is a ClusterHooks whose consensus round takes a fixed time —
// a freshly elected leader, a slow follower — before applying locally.
type slowCluster struct {
	srv   *Server
	delay time.Duration
}

func (c *slowCluster) IsLeader() bool     { return true }
func (c *slowCluster) LeaderAddr() string { return "" }
func (c *slowCluster) Propose(cmd ctlplane.Command, _ time.Duration) (*controller.Recovery, error) {
	time.Sleep(c.delay)
	return c.srv.ApplyCommand(cmd.Encode())
}

// TestReportInFlightDoesNotSilenceReporter: while a link report waits on a
// slow consensus round, the reporting agent's keep-alives — queued behind the
// report on the same connection — must still be read and stamped. They used
// to sit unread until the proposal returned, and the detector declared the
// live reporter dead.
func TestReportInFlightDoesNotSilenceReporter(t *testing.T) {
	const interval = 5 * time.Millisecond
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl := controller.New(nw, controller.Config{ProbeInterval: interval, Metrics: reg})
	hooks := &slowCluster{delay: 8 * 3 * interval}
	srv, err := NewServer("127.0.0.1:0", ctl, ServerConfig{Interval: interval, MissThreshold: 3, Obs: &obs.Bus{}, Cluster: hooks})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hooks.srv = srv
	mon, err := Subscribe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	edge := nw.EdgeGroup(1).Slots()[0]
	agg := nw.AggGroup(1).Slots()[0]
	a, err := Dial(srv.Addr(), edge, interval)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if entries := reg.Gauge("ctlnet.detector_entries"); !waitUntil(2*time.Second, func() bool { return entries.Value() == 1 }) {
		t.Fatalf("ctlnet.detector_entries = %d, want the reporter registered", entries.Value())
	}
	if err := a.ReportLinkFailureDetected(2, agg, 0, 0); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, mon); ev.Kind != "link" {
		t.Fatalf("first recovery = %+v, want the reported link", ev)
	}
	if n := reg.Histogram("ctlnet.detect_overshoot_ns").Count(); n != 0 {
		t.Fatalf("the detector declared %d live switches dead while the report was in flight", n)
	}
}

// TestDetectionLandsOnTheDeadline is the live check of what the expiry queue
// buys: sixteen agents at 20 ms x 3 fall silent one after another, and the
// median excess of the server's detection latency over the 60 ms deadline
// must be under a quarter of the keep-alive interval. A tick-and-scan
// detector adds U(0, interval) — median 10 ms; a median, so one scheduler
// hiccup cannot fail the test. No live agent may be recovered.
//
// The agents share the test's process, so a host that takes the CPU away
// for a keep-alive interval or more silences every one of them at once, and
// no detector could tell that from death; a run that fails while a watchdog
// goroutine saw such a stall is replayed (the end-to-end benchmark discards
// those epochs the same way).
func TestDetectionLandsOnTheDeadline(t *testing.T) {
	const interval = 20 * time.Millisecond
	var failure string
	for attempt := 1; attempt <= 3; attempt++ {
		var stall time.Duration
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				t0 := time.Now()
				select {
				case <-quit:
					return
				case <-time.After(time.Millisecond):
				}
				if over := time.Since(t0) - time.Millisecond; over > stall {
					stall = over
				}
			}
		}()
		failure = detectionRun(t, interval)
		close(quit)
		<-done
		if failure == "" {
			return
		}
		if stall < interval {
			break
		}
		t.Logf("attempt %d: %s — but the host stalled the process for %v; replaying", attempt, failure, stall)
	}
	t.Fatal(failure)
}

// detectionRun is one attempt of TestDetectionLandsOnTheDeadline; it returns
// what went wrong, or "".
func detectionRun(t *testing.T, interval time.Duration) string {
	deadline := 3 * interval
	nw, err := sbnet.New(sbnet.Config{K: 8, N: 4, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl := controller.New(nw, controller.Config{ProbeInterval: interval, Metrics: reg})
	srv := soloReplica(t, ctl, ServerConfig{Interval: interval, MissThreshold: 3, Obs: &obs.Bus{}}).Server
	mon, err := Subscribe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// The two sleeps below spread the agents' keep-alive phases and the
	// victims' deaths over wall time: the test measures detection against
	// deadlines that fall at different points of a shard's timer, which is
	// what a wall-clock spread gives it.
	ids := agentSwitchIDs(nw, 8, 24)
	agents := make([]*Agent, len(ids))
	for i, id := range ids {
		if agents[i], err = Dial(srv.Addr(), id, interval); err != nil {
			t.Fatal(err)
		}
		defer agents[i].Close()
		time.Sleep(interval / 8)
	}
	if entries := reg.Gauge("ctlnet.detector_entries"); !waitUntil(2*time.Second, func() bool { return entries.Value() == int64(len(ids)) }) {
		return fmt.Sprintf("ctlnet.detector_entries = %d, want all %d agents registered", entries.Value(), len(ids))
	}

	const victims = 16
	silenced := make(map[sbnet.SwitchID]bool)
	for _, a := range agents[:victims] {
		a.StopHeartbeats()
		silenced[a.ID] = true
		time.Sleep(interval / 3)
	}
	var excess []time.Duration
	timeout := time.After(2 * time.Second)
	for len(excess) < victims {
		var ev RecoveryEvent
		select {
		case ev = <-mon.Events:
		case <-timeout:
			return fmt.Sprintf("%d of %d silenced switches recovered within 2s", len(excess), victims)
		}
		if ev.Kind != "node" || len(ev.Failed) != 1 || !silenced[ev.Failed[0]] {
			return fmt.Sprintf("recovery of a switch that was never silenced: %+v", ev)
		}
		delete(silenced, ev.Failed[0])
		if ev.Latency < deadline {
			return fmt.Sprintf("switch %d declared dead after %v, before the %v deadline", ev.Failed[0], ev.Latency, deadline)
		}
		excess = append(excess, ev.Latency-deadline)
	}
	select {
	case ev := <-mon.Events:
		return fmt.Sprintf("recovery of a live agent: %+v", ev)
	case <-time.After(deadline + interval):
	}
	sort.Slice(excess, func(i, j int) bool { return excess[i] < excess[j] })
	median := (excess[victims/2-1] + excess[victims/2]) / 2
	if median >= interval/4 {
		return fmt.Sprintf("median detection excess over the deadline = %v, want under %v (all: %v)", median, interval/4, excess)
	}
	if got := reg.Histogram("ctlnet.detect_overshoot_ns").Count(); got != victims {
		return fmt.Sprintf("ctlnet.detect_overshoot_ns recorded %d declarations, want %d", got, victims)
	}
	if got, min := reg.Counter("ctlnet.probe_misses").Value(), int64(victims*3); got < min {
		return fmt.Sprintf("ctlnet.probe_misses = %d, want at least MissThreshold per dead switch = %d", got, min)
	}
	return ""
}

// TestLateWakeDeclaresNobody pins the stall guard: a wake that ran well
// behind its timer means the process stood still, and the readers with it,
// so for one keep-alive interval the detector trusts no silence it finds —
// not at the late wake, and not at an on-time wake just after. The first wake
// past the grace does the declaring.
func TestLateWakeDeclaresNobody(t *testing.T) {
	const interval = 5 * time.Millisecond
	const deadline = 3 * interval
	srv, nw, reg := detectorServer(t, 1, interval)
	srv.Close() // the loop is gone: the test runs its wakes by hand
	id := nw.EdgeGroup(0).Slots()[0]
	graces := reg.Counter("ctlnet.detector_stall_graces")
	const lastSeen = time.Second
	hear(srv, id, lastSeen)

	// A wake one interval late, past the switch's deadline.
	stall := lastSeen + deadline + interval/2
	dead, next := srv.wake(stall, stall-interval)
	if len(dead) != 0 || graces.Value() != 1 {
		t.Fatalf("late wake: declared %v, %d graces, want none and 1", dead, graces.Value())
	}
	if wait := next - stall; wait <= 0 || wait > interval/2 {
		t.Errorf("guarded wake re-armed %v ahead, want within half an interval", wait)
	}
	// An on-time wake inside the grace declares nobody either.
	if dead, _ = srv.wake(next, next); len(dead) != 0 || graces.Value() != 2 {
		t.Fatalf("on-time wake %v after the stall: declared %v, %d graces, want none and 2", next-stall, dead, graces.Value())
	}
	// A keep-alive read during the grace would have saved the switch; none
	// came, and the first wake past the grace declares it, once, with its
	// true last-seen stamp.
	end := stall + interval
	dead, _ = srv.wake(end, end)
	if len(dead) != 1 || dead[0].id != id || dead[0].lastSeen != lastSeen {
		t.Fatalf("wake after the grace declared %v, want switch %d last seen at %v", dead, id, lastSeen)
	}
	if dead, _ = srv.wake(end, end); len(dead) != 0 {
		t.Fatalf("switch handed off twice: %v", dead)
	}
}

// TestStallAtAnyPhaseIsSeen runs the detector's wake schedule against live
// agents through a process stall, on synthetic instants: at MissThreshold 2
// and 3, for every stall start over one deadline (every phase of the
// keep-alives and of the wakes) and every stall length from three quarters of
// an interval to the deadline, no live switch is declared dead. During the
// stall nothing runs: the wake due inside it runs when it ends, before the
// readers stamp the keep-alives that queued up meanwhile.
func TestStallAtAnyPhaseIsSeen(t *testing.T) {
	const interval = 20 * time.Millisecond
	const step = interval / 32
	const t0 = time.Second
	srv, nw, _ := detectorServer(t, 1, interval)
	srv.Close() // the loop is gone: the test runs its wakes by hand
	ids := nw.EdgeGroup(0).Slots()
	for _, g := range []*sbnet.Group{nw.AggGroup(0), nw.EdgeGroup(1)} {
		ids = append(ids, g.Slots()...)
	}
	for _, misses := range []int{2, 3} {
		srv.cfg.MissThreshold = misses
		deadline := time.Duration(misses) * interval
		for start := t0 + 4*interval; start < t0+4*interval+deadline; start += step {
			for length := 3 * interval / 4; length <= deadline; length += step {
				srv.det = detector{queue: newExpiryQueue(srv.numSwitches, deadline), stallAt: -interval}
				resume := start + length
				stalled := func(at time.Duration) bool { return at >= start && at < resume }
				// Agent i keeps alive every interval from its own phase.
				sent := make([]time.Duration, len(ids))
				for i := range ids {
					sent[i] = t0 + time.Duration(i)*interval/time.Duration(len(ids))
				}
				for armedFor := t0; armedFor < resume+2*deadline; {
					now := armedFor
					if stalled(now) {
						now = resume
					}
					for i, id := range ids {
						for ; sent[i] <= now; sent[i] += interval {
							at := sent[i]
							if stalled(at) {
								if now == resume {
									break // read after the wake the stall held up
								}
								at = resume
							}
							hear(srv, id, at)
						}
					}
					dead, next := srv.wake(now, armedFor)
					if len(dead) != 0 {
						t.Fatalf("MissThreshold %d, stall of %v from %v: live switches declared dead at %v: %v",
							misses, length, start-t0, now-t0, dead)
					}
					armedFor = next
				}
			}
		}
	}
}
