package fluid

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"sharebackup/internal/topo"
)

// TestDifferentialParallelWorkers extends the differential fuzz harness to
// the helpers: every randomized schedule is replayed in lockstep through the
// serial incremental engine (workers=1), parallel variants at worker counts
// {2, GOMAXPROCS, 13 (helpers only)}, which queue single-class passes beside
// the loop, and the forced-full reference.
//
// The contract under test is the strong one from DESIGN.md §10: parallel
// runs are *bit-identical* to serial — every rate, remaining-byte count,
// and FCT compared with ==, not a tolerance. (The full-recompute reference
// takes a different arithmetic path, so it gets the usual relEps-scale
// tolerance, same as TestDifferentialIncrementalVsFull.)
func TestDifferentialParallelWorkers(t *testing.T) {
	schedules := 400
	if testing.Short() {
		schedules = 60
	}
	workerCounts := []int{2, runtime.GOMAXPROCS(0), 13}
	var parallelPasses int64
	for seed := 0; seed < schedules; seed++ {
		parallelPasses += parallelDifferentialSchedule(t, int64(seed), workerCounts)
		if t.Failed() {
			t.Fatalf("schedule %d diverged", seed)
		}
	}
	// The suite must actually have run passes on the helpers, or the ==
	// comparisons above proved nothing about the parallel path.
	if parallelPasses == 0 {
		t.Fatal("no pass ran off the loop")
	}
}

// parallelDifferentialSchedule replays one randomized schedule (same
// generator shape as differentialSchedule: random connected graph, staggered
// arrivals, mid-run reroutes/stalls/recoveries) through the serial engine,
// the parallel variants, and the full reference, comparing state after every
// event batch. Returns the parallel passes the variants ran.
func parallelDifferentialSchedule(t *testing.T, seed int64, workerCounts []int) int64 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))

	n := 4 + r.Intn(8)
	g := &topo.Topology{}
	var nodes []topo.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, g.AddNode(topo.KindEdge, 0, i))
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddLink(nodes[i], nodes[r.Intn(i)], 0.5+r.Float64()*4); err != nil {
			t.Fatal(err)
		}
	}
	for extra := 0; extra < n; extra++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || g.LinkBetween(nodes[a], nodes[b]) != topo.NoLink {
			continue
		}
		if _, err := g.AddLink(nodes[a], nodes[b], 0.5+r.Float64()*4); err != nil {
			t.Fatal(err)
		}
	}
	var pool []topo.Path
	for i := 0; i < 2*n; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			b = (b + 1) % n
		}
		if p, ok := g.ShortestPath(nodes[a], nodes[b], nil); ok {
			pool = append(pool, p)
		}
	}
	if len(pool) == 0 {
		return 0
	}

	serial := New(g)
	serial.SetWorkers(1)
	var par []*Simulator
	for _, w := range workerCounts {
		s := New(g)
		s.SetWorkers(w)
		par = append(par, s)
	}
	helpersOnly(par)
	full := New(g)
	full.forceFull = true
	all := append(append([]*Simulator{serial}, par...), full)

	// checkLockstep asserts the parallel variants match the serial engine
	// bit-for-bit on every live flow.
	nf := 2 + r.Intn(11)
	checkLockstep := func(when string) {
		for i := 0; i < nf; i++ {
			fs := serial.Flow(FlowID(i))
			if fs == nil {
				continue
			}
			for vi, s := range par {
				fp := s.Flow(FlowID(i))
				if fs.Rate() != fp.Rate() || fs.Remaining() != fp.Remaining() {
					t.Errorf("seed %d %s flow %d: workers=%d diverged from serial: rate %.17g != %.17g or remaining %.17g != %.17g",
						seed, when, i, workerCounts[vi], fp.Rate(), fs.Rate(), fp.Remaining(), fs.Remaining())
				}
			}
		}
	}

	for i := 0; i < nf; i++ {
		bytes := 1 + r.Float64()*500
		arrival := r.Float64() * 5
		p := pool[r.Intn(len(pool))]
		for _, s := range all {
			if err := s.AddFlow(FlowID(i), bytes, arrival, p); err != nil {
				t.Fatal(err)
			}
		}
	}

	stalled := make(map[FlowID]bool)
	now := 0.0
	for op := 0; op < 3+r.Intn(6); op++ {
		now += r.Float64() * 4
		for _, s := range all {
			if err := s.Run(now); err != nil {
				t.Fatal(err)
			}
		}
		checkLockstep("mid-run")
		if t.Failed() {
			return 0
		}
		id := FlowID(r.Intn(nf))
		if serial.Flow(id).Done() || full.Flow(id).Done() {
			continue
		}
		switch r.Intn(3) {
		case 0: // reroute
			p := pool[r.Intn(len(pool))]
			for _, s := range all {
				if err := s.SetPath(id, p); err != nil {
					t.Fatal(err)
				}
			}
			delete(stalled, id)
		case 1: // stall
			for _, s := range all {
				if err := s.SetPath(id, topo.Path{}); err != nil {
					t.Fatal(err)
				}
			}
			stalled[id] = true
		case 2: // recover a stalled flow, if any
			for sid := range stalled {
				if serial.Flow(sid).Done() || full.Flow(sid).Done() {
					continue
				}
				p := pool[r.Intn(len(pool))]
				for _, s := range all {
					if err := s.SetPath(sid, p); err != nil {
						t.Fatal(err)
					}
				}
				delete(stalled, sid)
				break
			}
		}
	}
	for sid := range stalled {
		if serial.Flow(sid).Done() || full.Flow(sid).Done() {
			continue
		}
		p := pool[r.Intn(len(pool))]
		for _, s := range all {
			if err := s.SetPath(sid, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range all {
		if err := s.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < nf; i++ {
		fs := serial.Flow(FlowID(i))
		for vi, s := range par {
			if fp := s.Flow(FlowID(i)); fp.Finish() != fs.Finish() {
				t.Errorf("seed %d flow %d: workers=%d finish %.17g != serial %.17g",
					seed, i, workerCounts[vi], fp.Finish(), fs.Finish())
			}
		}
		ff := full.Flow(FlowID(i))
		tol := 64 * relEps * (math.Abs(ff.Finish()) + 1)
		if math.Abs(fs.Finish()-ff.Finish()) > tol {
			t.Errorf("seed %d flow %d: serial finish %v, full finish %v (Δ=%g > %g)",
				seed, i, fs.Finish(), ff.Finish(), math.Abs(fs.Finish()-ff.Finish()), tol)
		}
	}
	var passes int64
	for _, s := range par {
		passes += s.Stats().ParallelPasses
	}
	return passes
}

// helpersOnly keeps the last variant's loop from taking queued passes back:
// each runs on a helper, even on one core (the loop yields while it waits),
// so the == checks always cover passes run off the loop.
func helpersOnly(par []*Simulator) {
	par[len(par)-1].pool.helpersOnly = true
}

// TestDifferentialClassParallel replays randomized schedules on fabrics of
// two to six disconnected islands, whose classes' passes can run side by
// side, at one worker and at 2, 3 and 13 (helpers only). A pass the loop
// takes back from the pool still runs late, at the join, as a helper would.
// Every rate, remaining byte count and finish time must be == to the serial
// engine's after every Run, and the engine counters other than
// ParallelPasses must agree at the end. The
// schedules mix the cases where classes meet or the loop must wait: routes
// spanning two islands set between Run calls (classes merge), arrivals at one
// instant in two islands, twin islands carrying mirrored flows that complete
// within relEps of each other (a completion cohort across classes), reroute
// batches, and stalls and recoveries.
func TestDifferentialClassParallel(t *testing.T) {
	schedules := 200
	if testing.Short() {
		schedules = 40
	}
	var off int64
	for seed := 0; seed < schedules; seed++ {
		off += classParallelSchedule(t, int64(seed), []int{2, 3, 13})
		if t.Failed() {
			t.Fatalf("schedule %d diverged", seed)
		}
	}
	if off == 0 {
		t.Fatal("no pass ran off the loop")
	}
	t.Logf("%d passes ran off the loop", off)
}

// island is one disconnected piece of a class-parallel fabric: its nodes and
// a pool of routes inside it.
type island struct {
	nodes []topo.NodeID
	pool  []topo.Path
}

// classParallelSchedule runs one schedule and returns how many passes the
// parallel variants ran off the loop.
func classParallelSchedule(t *testing.T, seed int64, workerCounts []int) int64 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := &topo.Topology{}

	// Each island is a random connected shape; a twin repeats an earlier
	// island's shape and capacities, so mirrored flows finish together.
	type edge struct {
		a, b int
		cap  float64
	}
	type shape struct {
		n     int
		edges []edge
		pairs [][2]int
	}
	var shapes []shape
	var islands []island
	twinOf := map[int]int{}
	for i := 0; i < 2+r.Intn(5); i++ {
		var sh shape
		if i > 0 && r.Intn(3) == 0 {
			j := r.Intn(i)
			sh = shapes[j]
			twinOf[i] = j
		} else {
			sh.n = 3 + r.Intn(4)
			for v := 1; v < sh.n; v++ {
				sh.edges = append(sh.edges, edge{v, r.Intn(v), 0.5 + r.Float64()*4})
			}
			for e := 0; e < sh.n/2; e++ {
				if a, b := r.Intn(sh.n), r.Intn(sh.n); a != b {
					sh.edges = append(sh.edges, edge{a, b, 0.5 + r.Float64()*4})
				}
			}
			for k := 0; k < 2*sh.n; k++ {
				if a, b := r.Intn(sh.n), r.Intn(sh.n); a != b {
					sh.pairs = append(sh.pairs, [2]int{a, b})
				}
			}
		}
		shapes = append(shapes, sh)
		var is island
		for v := 0; v < sh.n; v++ {
			is.nodes = append(is.nodes, g.AddNode(topo.KindEdge, i, v))
		}
		for _, e := range sh.edges {
			if g.LinkBetween(is.nodes[e.a], is.nodes[e.b]) != topo.NoLink {
				continue
			}
			if _, err := g.AddLink(is.nodes[e.a], is.nodes[e.b], e.cap); err != nil {
				t.Fatal(err)
			}
		}
		for _, pr := range sh.pairs {
			if p, ok := g.ShortestPath(is.nodes[pr[0]], is.nodes[pr[1]], nil); ok {
				is.pool = append(is.pool, p)
			}
		}
		islands = append(islands, is)
	}

	serial := New(g)
	serial.SetWorkers(1)
	all := []*Simulator{serial}
	for _, w := range workerCounts {
		s := New(g)
		s.SetWorkers(w)
		all = append(all, s)
	}
	par := all[1:]
	helpersOnly(par)

	// Flows: each inside one island; some arrive with the previous flow in
	// another island; every flow in a twin's original is mirrored into the
	// twin at the same instant, with bytes equal or off by a relEps sliver.
	type flow struct {
		island int
		route  int
	}
	var flows []flow
	add := func(is, route int, bytes, arrival float64) {
		if len(islands[is].pool) == 0 {
			return
		}
		id := FlowID(len(flows))
		flows = append(flows, flow{is, route})
		for _, s := range all {
			if err := s.AddFlow(id, bytes, arrival, islands[is].pool[route]); err != nil {
				t.Fatal(err)
			}
		}
	}
	arrival := 0.0
	for n := 6 + r.Intn(14); len(flows) < n; {
		is := r.Intn(len(islands))
		if len(islands[is].pool) == 0 {
			n--
			continue
		}
		if r.Intn(3) > 0 {
			arrival = r.Float64() * 5 // else: the same instant as the last flow
		}
		route := r.Intn(len(islands[is].pool))
		bytes := 20 + r.Float64()*400
		add(is, route, bytes, arrival)
		for twin, orig := range twinOf {
			if orig == is {
				add(twin, route, bytes*(1+float64(r.Intn(2))*1e-12), arrival)
			}
		}
	}
	if len(flows) == 0 {
		return 0
	}

	check := func(when string) {
		for i := range flows {
			fs := serial.Flow(FlowID(i))
			for vi, s := range par {
				fp := s.Flow(FlowID(i))
				if fp.Rate() != fs.Rate() || fp.Remaining() != fs.Remaining() || fp.Done() != fs.Done() || fp.Finish() != fs.Finish() {
					t.Errorf("seed %d %s flow %d: workers=%d rate %.17g remaining %.17g finish %.17g, serial %.17g %.17g %.17g",
						seed, when, i, workerCounts[vi], fp.Rate(), fp.Remaining(), fp.Finish(), fs.Rate(), fs.Remaining(), fs.Finish())
				}
			}
		}
	}
	setPath := func(id FlowID, p topo.Path) {
		for _, s := range all {
			if err := s.SetPath(id, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func() (FlowID, bool) {
		id := FlowID(r.Intn(len(flows)))
		return id, !serial.Flow(id).Done()
	}

	stalled := map[FlowID]bool{}
	now := 0.0
	for op := 0; op < 4+r.Intn(6); op++ {
		now += r.Float64() * 3
		for _, s := range all {
			if err := s.Run(now); err != nil {
				t.Fatal(err)
			}
		}
		if check("mid-run"); t.Failed() {
			return 0
		}
		switch r.Intn(4) {
		case 0: // a reroute batch, each inside its flow's island
			for k := 0; k < 1+r.Intn(3); k++ {
				if id, ok := live(); ok {
					pool := islands[flows[id].island].pool
					setPath(id, pool[r.Intn(len(pool))])
					delete(stalled, id)
				}
			}
		case 1: // merge two islands' classes with a route spanning both
			id, ok := live()
			other := r.Intn(len(islands))
			if !ok || len(islands[other].pool) == 0 {
				continue
			}
			own := islands[flows[id].island].pool
			links := append(slices.Clone(own[r.Intn(len(own))].Links), islands[other].pool[r.Intn(len(islands[other].pool))].Links...)
			setPath(id, topo.Path{Links: links})
			delete(stalled, id)
		case 2: // stall
			if id, ok := live(); ok {
				setPath(id, topo.Path{})
				stalled[id] = true
			}
		case 3: // recover the stalled flows
			for id := range stalled {
				if !serial.Flow(id).Done() {
					pool := islands[flows[id].island].pool
					setPath(id, pool[r.Intn(len(pool))])
				}
				delete(stalled, id)
			}
		}
	}
	for id := range stalled {
		if !serial.Flow(id).Done() {
			pool := islands[flows[id].island].pool
			setPath(id, pool[r.Intn(len(pool))])
		}
	}
	for _, s := range all {
		if err := s.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
	}
	check("drained")

	want := serial.Stats()
	var off int64
	for vi, s := range par {
		got := s.Stats()
		off += got.ParallelPasses
		got.ParallelPasses = want.ParallelPasses
		if got != want {
			t.Errorf("seed %d: workers=%d engine counters %+v, serial %+v", seed, workerCounts[vi], got, want)
		}
	}
	return off
}

// TestHelpersLiveOnlyInRun: a single class's passes never start a helper,
// a second class's do, and every helper has exited when Run returns. Helpers
// started is read from the engine: startHelpers gives each its own worker,
// and the workers outlive the Run.
func TestHelpersLiveOnlyInRun(t *testing.T) {
	g := &topo.Topology{}
	var paths []topo.Path
	for i := 0; i < 2; i++ {
		a, b := g.AddNode(topo.KindEdge, i, 0), g.AddNode(topo.KindEdge, i, 1)
		l, err := g.AddLink(a, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, topo.Path{Links: []topo.LinkID{l}})
	}
	for _, islands := range []int{1, 2} {
		s := New(g)
		s.SetWorkers(4)
		for i := 0; i < 40; i++ {
			if err := s.AddFlow(FlowID(i), 100, float64(i)/10, paths[i%islands]); err != nil {
				t.Fatal(err)
			}
		}
		// A short flow completes among the arrivals, while helpers may run.
		if err := s.AddFlow(40, 0.01, 3, paths[0]); err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		for _, until := range []float64{3.95, math.Inf(1)} {
			if err := s.Run(until); err != nil {
				t.Fatal(err)
			}
			// A helper's last act is to count itself out of the Run's wait
			// group; the runtime lists it until its goroutine is torn down,
			// which a descheduled core can hold up, and nothing signals that.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > base {
				t.Fatalf("%d islands: %d goroutines after Run, %d before", islands, n, base)
			}
		}
		if started := len(s.ws) > 1; started != (islands > 1) {
			t.Errorf("%d islands: helpers started = %v", islands, started)
		}
	}
}
