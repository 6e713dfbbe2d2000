package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sharebackup/internal/ctlnet"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// liveParams sizes one replicated control-plane cluster. The defaults are
// the sizing ISSUE 12 measured on a 2-core VM: every edge switch of a k=16
// fat-tree runs its own agent over its own TCP connection (128 agents), a
// 20 ms keep-alive interval with 3 misses (5 ms produced false recoveries of
// live switches on a shared VM), and n=8 backups so every switch of a
// failure group can fail once per epoch.
type liveParams struct {
	K, N, Agents, NumCS, Replicas int
	Interval                      time.Duration
	Miss                          int
	// Timeout is how long an injection may take before it counts as failed.
	Timeout time.Duration
}

func defaultLive() liveParams {
	return liveParams{
		K: 16, N: 8, Agents: 128, NumCS: 2, Replicas: 3,
		Interval: 20 * time.Millisecond, Miss: 3, Timeout: time.Second,
	}
}

type injKind uint8

const (
	injNode injKind = iota // the agent goes silent (StopHeartbeats)
	injLink                // the agent reports a failed up-link
)

func (k injKind) String() string {
	if k == injLink {
		return "link"
	}
	return "node"
}

// injection is one scheduled failure. Due is an offset from the start of the
// epoch's injection window; the generator is open loop, so every latency is
// timed from Due, not from when the generator got round to it.
type injection struct {
	Kind  injKind
	Agent int // index into the cluster's agent list
	Due   time.Duration
	Burst int // burst index for correlated failures, -1 otherwise
}

// steadySchedule spreads one injection per agent evenly at rate per second,
// in a seeded random agent order with a seeded jitter of up to a quarter of
// the gap (so the order never changes and no two injections coincide).
func steadySchedule(kind injKind, agents int, rate float64, rng *rand.Rand) []injection {
	gap := time.Duration(float64(time.Second) / rate)
	order := rng.Perm(agents)
	out := make([]injection, agents)
	for i, a := range order {
		jitter := time.Duration((rng.Float64() - 0.5) * 0.5 * float64(gap))
		out[i] = injection{Kind: kind, Agent: a, Due: gap/2 + time.Duration(i)*gap + jitter, Burst: -1}
	}
	return out
}

// stormSchedule silences the agents in bursts: burst b takes every agent in
// a seeded choice of slots-per-burst edge slots across all pods at one
// instant, so each burst hits every failure group equally and no group runs
// out of backups. Agent i sits in pod i%k, edge slot i/k.
func stormSchedule(k, agents, bursts int, gap time.Duration, rng *rand.Rand) []injection {
	slots := agents / k
	perBurst := slots / bursts
	slotOrder := rng.Perm(slots)
	var out []injection
	for b := 0; b < bursts; b++ {
		var members []int
		for _, s := range slotOrder[b*perBurst : (b+1)*perBurst] {
			for pod := 0; pod < k; pod++ {
				members = append(members, s*k+pod)
			}
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		for _, a := range members {
			out = append(out, injection{Kind: injNode, Agent: a, Due: time.Duration(b) * gap, Burst: b})
		}
	}
	return out
}

// linkTarget names the up-link an agent reports as failed.
type linkTarget struct {
	Pod, Slot int
	UpPort    int // edge up-port index j: the link crosses circuit switch CS(2,pod,j)
	AggSlot   int // logical agg slot at the far end, (Slot+UpPort) mod k/2
}

// linkTargetOf picks, for agent i (pod i%k, edge slot i/k), a physically
// wired up-link such that within a pod every report names a different agg
// switch and the reports spread over the circuit switches as evenly as the
// wiring allows. Edge slot s reaches agg slot (s+j) mod k/2 through up-port
// j; no choice of j makes both the agg slots and the up-ports distinct when
// k/2 is even, so up-port 0 is used twice per pod and every other at most
// once. The controller halts recovery when one circuit switch collects more
// than 3 reports in a second (CSReportThreshold), which is what reporting
// every agent's first up-link (ClusterEmulation.FailLink) runs into.
func linkTargetOf(k, agent int) linkTarget {
	half := k / 2
	t := linkTarget{Pod: agent % k, Slot: agent / k}
	if t.Slot < half/2 {
		t.UpPort = t.Slot
	} else {
		t.UpPort = (t.Slot + 1) % half
	}
	t.AggSlot = (t.Slot + t.UpPort) % half
	return t
}

// epochResult is what one cluster lifetime yields.
type epochResult struct {
	Setup  time.Duration // cluster construction, subscription and warm-up
	Window time.Duration // injection window: first due time to last completion
	CPU    time.Duration // process CPU over the window

	NodeMS, LinkMS []float64 // completed operations, due time to completion
	BurstMS        []float64 // per burst: burst instant to its last recovery
	DrainMS        []float64 // per burst: its first recovery to its last
	LateUS         []float64 // how late the generator issued each injection
	DetectLagMS    []float64 // the server's own detection-to-recovered latency of node events

	Attempted, Failed int
	FalseRecoveries   int
	// MaxStall is the longest the whole process was held up during the
	// window, as a watchdog goroutine saw it: the host took the CPU away and
	// every agent fell silent at once.
	MaxStall    time.Duration
	Recoveries  int   // recoveries the leader committed
	CommitDelta int64 // consensus log entries committed over the window
	Violations  []string

	Hops          []hopSample // traced epochs only
	ExplainedFrac []float64   // per injection: hop sum over the latency the benchmark measured
	StitchMS      float64
	Traces        int
}

// hopSample is one recovery's per-hop breakdown as the program's own
// stitched trace files attribute it.
type hopSample struct {
	Switch                             sbnet.SwitchID
	Kind                               string
	Detection, Report, Reconfig, Total time.Duration
}

// collector timestamps recovery events as a subscriber sees them.
type collector struct {
	mu       sync.Mutex
	events   []timedEvent
	waiting  map[sbnet.SwitchID]bool
	allSeen  chan struct{}
	finished chan struct{}
}

type timedEvent struct {
	ev ctlnet.RecoveryEvent
	at time.Time
}

func newCollector(expect []sbnet.SwitchID) *collector {
	c := &collector{
		waiting:  make(map[sbnet.SwitchID]bool, len(expect)),
		allSeen:  make(chan struct{}),
		finished: make(chan struct{}),
	}
	for _, id := range expect {
		c.waiting[id] = true
	}
	if len(expect) == 0 {
		close(c.allSeen)
	}
	return c
}

// run drains the monitor until its connection closes.
func (c *collector) run(mon *ctlnet.Monitor) {
	defer close(c.finished)
	for ev := range mon.Events {
		now := time.Now()
		c.mu.Lock()
		c.events = append(c.events, timedEvent{ev, now})
		if ev.Kind == "node" {
			for _, id := range ev.Failed {
				if c.waiting[id] {
					delete(c.waiting, id)
					if len(c.waiting) == 0 {
						close(c.allSeen)
					}
				}
			}
		}
		c.mu.Unlock()
	}
}

// runLiveEpoch builds a fresh cluster, plays the schedule against it, waits
// for it to quiesce, checks its outputs, and tears it down. Backups are
// consumed and repair is not replicated, so every epoch needs a new cluster;
// its construction is reported as set-up time and excluded from latencies.
// With traceDir set the cluster writes per-process trace files there and the
// result carries their stitched per-hop attribution.
func runLiveEpoch(p liveParams, sched []injection, traceDir string, tr *tracer, injBase int) (*epochResult, error) {
	res := &epochResult{Attempted: len(sched)}
	setupStart := time.Now()
	reg := obs.NewRegistry()
	cl, err := ctlnet.NewClusterEmulation(ctlnet.ClusterConfig{
		EmulationConfig: ctlnet.EmulationConfig{
			K: p.K, N: p.N, NumAgents: p.Agents, NumCS: p.NumCS,
			Interval: p.Interval, MissThreshold: p.Miss,
			TraceDir: traceDir, Registry: reg,
		},
		Replicas: p.Replicas,
		// The replicas' election timeouts keep their default seed: drawing
		// them from the workload seed would only add 100 ms of spread to the
		// set-up time.
	})
	if err != nil {
		return nil, fmt.Errorf("live epoch: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()
	leader, err := cl.Leader(5 * time.Second)
	if err != nil {
		return nil, err
	}
	mon, err := ctlnet.Subscribe(leader.Server.Addr())
	if err != nil {
		return nil, err
	}
	defer mon.Close()

	// Resolve every agent's switch and link target while nothing mutates
	// the network model.
	model := cl.Replicas[0].Net
	type linkArgs struct {
		ownPort, aggPort int
		agg              sbnet.SwitchID
	}
	links := make([]linkArgs, len(cl.Agents))
	for i, a := range cl.Agents {
		lt := linkTargetOf(p.K, i)
		if got := model.EdgeGroup(lt.Pod).Slots()[lt.Slot]; got != a.ID {
			return nil, fmt.Errorf("live epoch: agent %d is switch %d, expected pod %d slot %d = %d", i, a.ID, lt.Pod, lt.Slot, got)
		}
		links[i] = linkArgs{ownPort: p.K/2 + lt.UpPort, aggPort: lt.Slot, agg: model.AggGroup(lt.Pod).Slots()[lt.AggSlot]}
	}
	var expect []sbnet.SwitchID
	for _, in := range sched {
		if in.Kind == injNode {
			expect = append(expect, cl.Agents[in.Agent].ID)
		}
	}
	col := newCollector(expect)
	go col.run(mon)

	// Warm-up: every agent's hello already registered it with the leader's
	// detector; a few intervals let the keep-alive streams reach steady
	// state (and, when tracing, the clock-sync probes land).
	if traceDir != "" && !cl.WaitClockSync(5*time.Second) {
		return nil, fmt.Errorf("live epoch: agents never synced clocks")
	}
	time.Sleep(5 * p.Interval)
	commitIndex := func(replica int) int64 {
		return reg.Gauge(fmt.Sprintf("ctlplane.replica%d.commit_index", replica)).Value()
	}
	commit0 := commitIndex(leader.ID)
	res.Setup = time.Since(setupStart)

	// Injection window. This goroutine is the generator; link reports block
	// until acknowledged, so each runs on its own goroutine to keep the
	// schedule open loop.
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Due < sched[j].Due })
	issued := make([]time.Time, len(sched))
	linkDone := make([]time.Time, len(sched))
	linkErr := make([]error, len(sched))
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	stopWatch := watchStalls(&res.MaxStall)
	for i, in := range sched {
		sleepUntil(start.Add(in.Due), in.Kind == injLink)
		a := cl.Agents[in.Agent]
		issued[i] = time.Now()
		switch in.Kind {
		case injNode:
			a.StopHeartbeats()
		case injLink:
			wg.Add(1)
			go func(i int, la linkArgs) {
				defer wg.Done()
				linkErr[i] = a.ReportLinkFailureDetected(la.ownPort, la.agg, la.aggPort, time.Millisecond)
				linkDone[i] = time.Now()
			}(i, links[in.Agent])
		}
	}
	wg.Wait()
	lastDue := start.Add(sched[len(sched)-1].Due)
	select {
	case <-col.allSeen:
	case <-time.After(time.Until(lastDue.Add(p.Timeout))):
	}
	windowEnd := time.Now()
	stopWatch()
	res.CPU = processCPU() - cpu0

	// Quiesce: followers apply a committed entry one heartbeat after the
	// leader, so wait until every replica's commit index agrees.
	quiesced := waitFor(2*time.Second, func() bool {
		for _, r := range cl.Replicas {
			if commitIndex(r.ID) != commitIndex(leader.ID) {
				return false
			}
		}
		return true
	})
	if !quiesced {
		res.Violations = append(res.Violations, "replicas' commit indexes never converged")
	}
	res.CommitDelta = commitIndex(leader.ID) - commit0
	time.Sleep(2 * p.Interval) // let a late (false) recovery surface before the books close
	mon.Close()
	<-col.finished
	files := cl.TraceFiles()
	closed = true
	if err := cl.Close(); err != nil {
		return nil, fmt.Errorf("live epoch: close: %w", err)
	}

	// Everything is stopped: the models can be read without racing applies.
	firstNode := make(map[sbnet.SwitchID]time.Time)
	eventsPerSwitch := make(map[sbnet.SwitchID]int)
	for _, te := range col.events {
		if len(te.ev.Failed) == 0 {
			continue
		}
		id := te.ev.Failed[0]
		eventsPerSwitch[id]++
		if te.ev.Kind == "node" {
			if _, dup := firstNode[id]; !dup {
				firstNode[id] = te.at
			}
			res.DetectLagMS = append(res.DetectLagMS, ms(te.ev.Latency))
		}
	}
	committed := make(map[sbnet.SwitchID]bool)
	for _, rec := range leader.Ctl.Recoveries() {
		for _, id := range rec.Failed {
			committed[id] = true
		}
	}
	injected := make(map[sbnet.SwitchID]bool)
	type burst struct {
		first, last time.Duration // its earliest and latest recovery, from the burst instant
		lost        bool          // a member was never recovered in time
	}
	bursts := make(map[int]*burst)
	completed := make(map[sbnet.SwitchID]opInterval)
	for i, in := range sched {
		id := cl.Agents[in.Agent].ID
		injected[id] = true
		due := start.Add(in.Due)
		res.LateUS = append(res.LateUS, float64(issued[i].Sub(due))/float64(time.Microsecond))
		var b *burst
		if in.Burst >= 0 {
			if b = bursts[in.Burst]; b == nil {
				b = &burst{first: p.Timeout}
				bursts[in.Burst] = b
			}
		}
		var done time.Time
		switch in.Kind {
		case injNode:
			done = firstNode[id]
			d, ok := latencyFromDue(due, issued[i], done, p.Timeout)
			if !ok {
				res.Failed++
				res.Violations = appendLost(res.Violations, id, committed[id], !done.IsZero() && done.Before(issued[i]))
				if b != nil {
					b.lost = true
				}
				continue
			}
			res.NodeMS = append(res.NodeMS, ms(d))
			if b != nil {
				b.first, b.last = min(b.first, d), max(b.last, d)
			}
		case injLink:
			done = linkDone[i]
			d, ok := latencyFromDue(due, issued[i], done, p.Timeout)
			if !ok || linkErr[i] != nil {
				res.Failed++
				res.Violations = append(res.Violations, fmt.Sprintf("link report of switch %d failed: %v", id, linkErr[i]))
				continue
			}
			res.LinkMS = append(res.LinkMS, ms(d))
		}
		completed[id] = opInterval{inj: injBase + i, kind: in.Kind, due: due, done: done}
	}
	for _, b := range bursts {
		if !b.lost {
			res.BurstMS = append(res.BurstMS, ms(b.last))
			res.DrainMS = append(res.DrainMS, ms(b.last-b.first))
		}
	}
	res.Window = windowEnd.Sub(start)

	// False recoveries: a switch recovered that the generator never failed,
	// or recovered more than once.
	for id, n := range eventsPerSwitch {
		if !injected[id] {
			res.FalseRecoveries += n
		} else if n > 1 {
			res.FalseRecoveries += n - 1
		}
	}
	if res.FalseRecoveries > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d false or duplicate recoveries", res.FalseRecoveries))
	}
	res.Recoveries = len(leader.Ctl.Recoveries())
	res.Violations = append(res.Violations, checkCluster(cl, leader.ID, len(col.events))...)

	if traceDir != "" {
		t0 := time.Now()
		res.Hops, res.Traces, err = stitchHops(files, fmt.Sprintf("controller-%d", leader.ID))
		res.StitchMS = ms(time.Since(t0))
		if err != nil {
			return nil, err
		}
	}
	res.recordSpans(tr, completed)
	return res, nil
}

// opInterval is one completed injection as the benchmark timed it.
type opInterval struct {
	inj       int
	kind      injKind
	due, done time.Time
}

// recordSpans files every completed injection as a root span and, where the
// program's stitched trace attributed the recovery, its hops as children laid
// end to end from the due time: detection (the keep-alive detector, or the
// reporting agent), the controller's apply, and the circuit reconfiguration.
// What the children leave uncovered is the root's self time — wire, consensus
// and publish, which the program's own trace does not attribute yet. It also
// reports which share of each injection's measured latency the hops explain.
func (res *epochResult) recordSpans(tr *tracer, completed map[sbnet.SwitchID]opInterval) {
	hops := make(map[sbnet.SwitchID]hopSample, len(res.Hops))
	for _, h := range res.Hops {
		hops[h.Switch] = h
	}
	for id, op := range completed {
		start, end := tr.since(op.due), tr.since(op.done)
		root := tr.add("bench.injection."+op.kind.String(), 0, op.inj, start, end)
		h, ok := hops[id]
		if !ok {
			continue
		}
		measured := op.done.Sub(op.due)
		explained := h.Detection + h.Report + h.Reconfig
		if op.kind == injLink {
			// The agent reports its detection latency; it elapsed before
			// the report was due, so it is not part of the measured path.
			explained -= h.Detection
			h.Detection = 0
		}
		if measured > 0 {
			res.ExplainedFrac = append(res.ExplainedFrac, float64(explained)/float64(measured))
		}
		cursor := start
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"ctlnet.detection", h.Detection}, {"controller.apply", h.Report}, {"circuit.reconfig", h.Reconfig}} {
			stop := cursor + c.d
			if stop > end {
				stop = end
			}
			if stop > cursor {
				tr.add(c.name, root, op.inj, cursor, stop)
				cursor = stop
			}
		}
	}
}

// latencyFromDue is the open-loop latency of one injection: from when it was
// due, not from when the generator issued it, so a generator or system stall
// that delays later injections is charged to them. It reports false for an
// injection that never completed, completed before it was issued (a false
// recovery), or took longer than the timeout.
func latencyFromDue(due, issued, done time.Time, timeout time.Duration) (time.Duration, bool) {
	if done.IsZero() || done.Before(issued) || done.Sub(due) > timeout {
		return 0, false
	}
	return done.Sub(due), true
}

// appendLost records why a node injection produced no timely recovery,
// telling a dropped subscriber event (the leader committed the recovery)
// from a lost recovery (it never did) from a false one (recovered before
// the generator silenced it).
func appendLost(v []string, id sbnet.SwitchID, committed, early bool) []string {
	switch {
	case early:
		return append(v, fmt.Sprintf("node %d was recovered before it was failed", id))
	case committed:
		return append(v, fmt.Sprintf("node %d: recovery committed but its event was late or dropped", id))
	default:
		return append(v, fmt.Sprintf("node %d: recovery lost", id))
	}
}

// checkCluster runs the output checks on a stopped cluster: replicas agree
// on the recovery history, every network model is sound, no backup serves
// two positions, no controller halted, and the subscriber saw exactly one
// event per committed recovery.
func checkCluster(cl *ctlnet.ClusterEmulation, leaderID, events int) []string {
	var v []string
	history := func(r *ctlnet.Replica) string {
		var b strings.Builder
		for _, rec := range r.Ctl.Recoveries() {
			fmt.Fprintf(&b, "%s%v>%v;", rec.Kind, rec.Failed, rec.Backup)
		}
		return b.String()
	}
	want := history(cl.Replicas[leaderID])
	for _, r := range cl.Replicas {
		if got := history(r); got != want {
			v = append(v, fmt.Sprintf("replica %d's recovery history differs from the leader's", r.ID))
		}
		if err := r.Net.CheckInvariants(); err != nil {
			v = append(v, fmt.Sprintf("replica %d: %v", r.ID, err))
		}
		if r.Ctl.Halted() {
			v = append(v, fmt.Sprintf("replica %d's controller halted", r.ID))
		}
	}
	used := make(map[sbnet.SwitchID]bool)
	recs := cl.Replicas[leaderID].Ctl.Recoveries()
	for _, rec := range recs {
		for _, b := range rec.Backup {
			if used[b] {
				v = append(v, fmt.Sprintf("backup %d assigned to two positions", b))
			}
			used[b] = true
		}
	}
	if events != len(recs) {
		v = append(v, fmt.Sprintf("subscriber saw %d events for %d committed recoveries", events, len(recs)))
	}
	return v
}

// stitchHops merges the per-process trace files and extracts, for every
// recovery the leader drove, the per-hop breakdown its wall-clock
// recovery-complete event recorded.
func stitchHops(files []string, leaderProc string) ([]hopSample, int, error) {
	var procs []obs.ProcTrace
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		evs, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		procs = append(procs, obs.ProcTrace{Name: strings.TrimSuffix(filepath.Base(path), ".jsonl"), Events: evs})
	}
	st, err := obs.Stitch(procs)
	if err != nil {
		return nil, 0, err
	}
	var hops []hopSample
	for _, trc := range st.Traces {
		var h hopSample
		found := false
		for _, ss := range trc.Spans {
			for _, ev := range ss.Span.Events {
				if ss.Proc == leaderProc && ev.Kind == obs.KindRecoveryComplete && ev.Wall {
					h.Switch, h.Kind = sbnet.SwitchID(ev.Switch), ev.Detail
					h.Detection, h.Report, h.Reconfig, h.Total = ev.Detection, ev.Report, ev.Reconfig, ev.Total
					found = true
				}
			}
		}
		if found {
			hops = append(hops, h)
		}
	}
	return hops, len(st.Traces), nil
}

// watchStalls starts a goroutine that sleeps five milliseconds at a time and
// records the largest overshoot into max; the returned function stops it and
// waits for it to exit.
func watchStalls(max *time.Duration) (stop func()) {
	const period = 5 * time.Millisecond
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() {
			t0 := time.Now()
			time.Sleep(period)
			if over := time.Since(t0) - period; over > *max {
				*max = over
			}
		}
	}()
	return func() {
		quit.Store(true)
		<-done
	}
}

// sleepUntil waits for the due instant. The runtime's timers fire up to a
// millisecond late on the sizing VM, which is noise for a 60 ms node recovery
// but twice the whole latency of a link report; with precise set, the last
// stretch is spent yielding in a loop instead, so reports leave within
// microseconds of their due time.
func sleepUntil(due time.Time, precise bool) {
	margin := time.Duration(0)
	if precise {
		margin = 2 * time.Millisecond
	}
	if d := time.Until(due) - margin; d > 0 {
		time.Sleep(d)
	}
	for precise && time.Now().Before(due) {
		runtime.Gosched()
	}
}

// waitFor polls cond every millisecond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
