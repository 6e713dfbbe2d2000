package fluid

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sharebackup/internal/topo"
)

// Passes side by side (DESIGN.md §10).
//
// A recompute pass reads and writes nothing outside the link-sharing
// components its dirty links reach. Classes, a union-find over links that
// merges two classes whenever an attached route spans both and never splits,
// are coarser and cheap to keep: the whole footprint of a pass whose dirty
// links lie in one class (its members, their links, the background lists and
// certificates it reads) lies inside that class. Run hands such passes to
// helper goroutines that live only for the Run call (SetWorkers(n) allows
// n-1) and goes on with events of other classes. Results are bit-identical to
// the serial engine at every worker count:
//
//  1. One loop pops arrivals and completions exactly as the serial engine
//     does, and each pass receives what the serial engine would have handed
//     it at that step: now, the active-set size, its generation numbers. It
//     records the flows whose rate it changed, and its stats, in its own
//     record and fills on its worker's scratch; it never reads Simulator.now
//     or the active set. The per-link tables it shares (rIdx, linkGen) it
//     touches only at its own class's links.
//  2. The loop joins a pending pass — waits for it, then re-keys the changed
//     flows' finish events and applies its stats — before it admits into,
//     completes from or merges the pass's class; it joins every pending pass
//     before a step whose dirty links span several classes, and before Run
//     returns. Multi-class passes run on the loop.
//  3. It processes an event ahead of another class's pending pass only if the
//     event's time plus completeDue's tolerance comes before every finish
//     time that pass could schedule (classes.lb).
//  4. The finish heap pops in a total order on (time, slot), so the order in
//     which joins apply updates cannot change what it returns.

// classes is the union-find over links: up[l] is l's parent, or at a root
// minus the class's size in links. lb, read at roots, bounds from below
// every finish time a pass in the class can schedule: the least, over the
// flows attached into the class, of lastT + remaining / (the least capacity
// on the route) at attach time. A rate never exceeds that capacity, so the
// quantity never decreases while a flow drains and a bound taken at attach
// stays valid; a completion leaves it where it is, which is still a bound.
type classes struct {
	up []int32
	lb []float64
}

func newClasses(n int) classes {
	c := classes{up: make([]int32, n), lb: make([]float64, n)}
	for i := range c.up {
		c.up[i], c.lb[i] = -1, math.Inf(1)
	}
	return c
}

func (c *classes) find(l topo.LinkID) int32 {
	up, x := c.up, int32(l)
	for up[x] >= 0 {
		if p := up[x]; up[p] >= 0 {
			up[x] = up[p]
		}
		x = up[x]
	}
	return x
}

// union merges two roots (neither may have a pending pass), the smaller
// under the larger, and returns the merged root.
func (c *classes) union(a, b int32) int32 {
	if a == b {
		return a
	}
	if c.up[a] > c.up[b] {
		a, b = b, a
	}
	c.up[a] += c.up[b]
	c.up[b] = a
	if !(c.lb[b] >= c.lb[a]) {
		c.lb[a] = c.lb[b]
	}
	return a
}

// pendingIn returns the pass pending in the class rooted at root, or nil.
// Few passes are ever pending, so a scan beats a table per link.
func (s *Simulator) pendingIn(root int32) *pass {
	for _, p := range s.queued {
		if p.root == root {
			return p
		}
	}
	return nil
}

// classify merges the classes of the route fi is being attached to, joining
// any pass pending in them first, and lowers the merged class's bound by the
// flow's own. A NaN bound never lets the loop move ahead.
func (s *Simulator) classify(fi int32, route []topo.LinkID) {
	c := &s.cls
	root, minCap := int32(-1), math.Inf(1)
	for _, l := range route {
		minCap = math.Min(minCap, s.links[l].cap)
		r := c.find(l)
		if p := s.pendingIn(r); p != nil {
			s.join(p)
		}
		if root < 0 {
			root = r
		} else {
			root = c.union(root, r)
		}
	}
	h := &s.hot[fi]
	if b := h.lastT + h.remaining/minCap; !(b >= c.lb[root]) {
		c.lb[root] = b
	}
}

// pass is one recompute pass: what the loop hands it, and what the loop
// applies when it joins it.
type pass struct {
	now     float64
	active  int    // active-set size at the pass (ripple's 2·|S| > active cut)
	passGen uint64 // prepare() generation
	gen     uint64 // the ripple pass's visit generation; gen+1 is its fallback's
	force   bool   // Simulator.forceFull: one fill over the whole active set
	seeds   []topo.LinkID

	root int32       // the class while pending, -1 for a pass the loop runs at once
	done atomic.Bool // a helper has run it

	fin   []int32 // flows whose rate the pass changed, in seal order
	stats EngineStats
}

// worker is one core's pass scratch. ws[0] is the loop's; helper i runs on
// ws[i+1]. Nothing here is shared, so passes on different workers never write
// the same memory.
type worker struct {
	s  *Simulator
	p  *pass // the pass running, nil between passes
	sc fillScratch

	// Component decomposition (comps spans index into compFlows/compLinks)
	// and the ripple pass's member and link lists.
	compFlows []int32
	compLinks []topo.LinkID
	comps     []compSpan
}

// run executes p on w. Every dispatch decision depends only on simulator
// state, never on the worker count. A pass is the ripple pass (fill only
// flows on dirty links, prove optimality locally), or, when the proof doesn't
// close, the exact decomposition into the link-sharing components its seeds
// reach; tests may force the reference fill over the whole active set
// instead. So Recomputes = RipplePasses + RippleFallbacks + FullRecomputes,
// and FullRecomputes is 0 outside tests.
func (w *worker) run(p *pass) {
	w.p = p
	st := &p.stats
	st.Recomputes++
	switch {
	case p.force:
		st.FullRecomputes++
		w.fillUnion()
	case w.ripple():
		st.RipplePasses++
	default:
		st.RippleFallbacks++
		w.decomposeFromSeeds()
		w.fillComponents()
	}
	w.p = nil
}

// pool is the helpers' shared work queue: passes the loop has queued and no
// one has taken. A helper takes the oldest; the loop may take a waiting pass
// back to run it itself.
type pool struct {
	mu      sync.Mutex
	waiting []*pass
	stop    bool
	todo    []*signal // one per helper: a pass was pushed, or stop
	done    signal    // a helper finished a pass
	wg      sync.WaitGroup
	started bool // the helpers run (loop-owned)

	// helpersOnly, set by tests, keeps the loop from taking passes back, so
	// every queued pass runs on a helper even when there is one core.
	helpersOnly bool
}

// serve is a helper's loop: take the oldest pass, run it, signal done.
func (s *Simulator) serve(w *worker, todo *signal) {
	pl := &s.pool
	defer pl.wg.Done()
	for seen := uint32(0); ; {
		pl.mu.Lock()
		if pl.stop {
			pl.mu.Unlock()
			return
		}
		if len(pl.waiting) == 0 {
			pl.mu.Unlock()
			seen = todo.wait(seen)
			continue
		}
		p := pl.waiting[0]
		pl.waiting = append(pl.waiting[:0], pl.waiting[1:]...)
		pl.mu.Unlock()
		w.run(p)
		p.stats.ParallelPasses++
		p.done.Store(true)
		pl.done.post()
	}
}

// push queues p for the helpers and returns how many passes wait.
func (pl *pool) push(p *pass) int {
	pl.mu.Lock()
	pl.waiting = append(pl.waiting, p)
	n := len(pl.waiting)
	pl.mu.Unlock()
	for _, g := range pl.todo {
		g.post()
	}
	return n
}

// claim takes p (the oldest waiting pass when p is nil) back from the pool
// for the loop. It returns nil when a helper has taken it, or none waits.
func (pl *pool) claim(p *pass) *pass {
	if pl.helpersOnly {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for i, t := range pl.waiting {
		if p == nil || t == p {
			pl.waiting = append(pl.waiting[:i], pl.waiting[i+1:]...)
			return t
		}
	}
	return nil
}

// await waits until the helper that took p has run it.
func (pl *pool) await(p *pass) {
	for seen := pl.done.n.Load(); !p.done.Load(); {
		seen = pl.done.wait(seen)
	}
}

// startHelpers starts workers-1 helpers for the rest of the Run.
func (s *Simulator) startHelpers() {
	pl := &s.pool
	if pl.started {
		return
	}
	pl.started, pl.stop = true, false
	pl.done.wake = make(chan struct{}, 1)
	for i := 1; i < s.workers; i++ {
		for len(s.ws) <= i {
			s.ws = append(s.ws, &worker{s: s})
		}
		g := &signal{wake: make(chan struct{}, 1)}
		pl.todo = append(pl.todo, g)
		pl.wg.Add(1)
		go s.serve(s.ws[i], g)
	}
}

// signal counts posts from one goroutine to another. Passes take tens of
// microseconds, so the waiter spins, yielding, for a while before it parks.
// Measured on sim-storm (k=32, 2-vCPU VM, op_p50 over alternating pairs): a
// one-slot channel in its place was 27 % slower than 256 yields (8/8
// pairs), and 4096 yields 11 % faster than 256 (5/6).
type signal struct {
	n      atomic.Uint32
	parked atomic.Bool
	wake   chan struct{}
}

// spinYields is how many times a waiter yields before it parks.
const spinYields = 4096

func (g *signal) post() {
	g.n.Add(1)
	if g.parked.Swap(false) {
		g.wake <- struct{}{}
	}
}

// wait returns the post count once it differs from seen.
func (g *signal) wait(seen uint32) uint32 {
	for spin := 0; ; spin++ {
		if n := g.n.Load(); n != seen {
			return n
		}
		if spin < spinYields {
			runtime.Gosched()
			continue
		}
		g.parked.Store(true)
		if g.n.Load() == seen || !g.parked.Swap(false) {
			<-g.wake // the post that unparks us sends it
		}
		spin = 0
	}
}

// newPass stamps p with what the serial engine would hand it now and takes
// the dirty seeds.
func (s *Simulator) newPass(p *pass) *pass {
	s.passGen++
	s.gen += 2
	p.now, p.active, p.passGen, p.gen = s.now, len(s.active), s.passGen, s.gen-1
	p.force = s.forceFull
	p.seeds = append(p.seeds[:0], s.dirtySeeds...)
	for _, l := range s.dirtySeeds {
		s.dirty[l] = false
	}
	s.dirtySeeds = s.dirtySeeds[:0]
	p.root = -1
	p.fin, p.stats = p.fin[:0], EngineStats{}
	return p
}

// recompute refreshes rates if any link is dirty. The scoped pass — ripple
// with component-decomposition fallback — recomputes only flows that can be
// affected; by construction no flow outside the recomputed set shares an
// unverified link with one inside, and max-min allocations decompose exactly
// over link-sharing components, so the scoped result equals the global one.
// A scoped pass whose seeds lie in one class is queued and may run beside
// the loop; any other pass joins every pending one and runs here, always in
// s.onLoop, so the large passes grow one record's buffers, not every spare's.
func (s *Simulator) recompute() {
	if len(s.dirtySeeds) == 0 {
		return
	}
	if root := s.soleClass(); root >= 0 {
		var p *pass
		if n := len(s.spare); n > 0 {
			p, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			p = new(pass)
		}
		s.queue(s.newPass(p), root)
		return
	}
	s.joinAll()
	p := s.newPass(&s.onLoop)
	s.ws[0].run(p)
	s.finish(p)
}

// soleClass returns the class all dirty seeds lie in, or -1 when the pass
// must run on the loop: one worker, a reference fill, or seeds in several
// classes.
func (s *Simulator) soleClass() int32 {
	if s.workers < 2 || s.forceFull {
		return -1
	}
	root := s.cls.find(s.dirtySeeds[0])
	for _, l := range s.dirtySeeds[1:] {
		if s.cls.find(l) != root {
			return -1
		}
	}
	return root
}

// queue makes p its class's pending pass and offers it to the helpers. When
// another pass still waits, the loop runs the oldest itself, so one stays
// ready for the next helper to free up and the loop never runs far ahead. No
// helper starts until a second class's pass is queued.
func (s *Simulator) queue(p *pass, root int32) {
	s.reap()
	if q := s.pendingIn(root); q != nil {
		s.join(q)
	}
	p.root = root
	s.queued = append(s.queued, p)
	p.done.Store(false)
	if s.pool.push(p) > 1 || s.pool.helpersOnly {
		s.startHelpers()
		if o := s.pool.claim(nil); o != nil {
			s.ws[0].run(o)
			s.finish(o)
		}
	}
}

// reap applies every pass the helpers have finished.
func (s *Simulator) reap() {
	for i := len(s.queued) - 1; i >= 0; i-- {
		if p := s.queued[i]; p.done.Load() {
			s.finish(p)
		}
	}
}

// join waits for p (or, if no helper took it, runs it here) and applies it.
func (s *Simulator) join(p *pass) {
	if s.pool.claim(p) != nil {
		s.ws[0].run(p)
	} else {
		s.pool.await(p)
	}
	s.finish(p)
}

func (s *Simulator) joinAll() {
	for n := len(s.queued); n > 0; n = len(s.queued) {
		s.join(s.queued[n-1])
	}
}

// finish applies a pass the loop has joined or run: it re-keys the finish
// events of the flows the pass changed, in seal order — no one has touched
// them since, so their rate, lastT and remaining are the pass's — and applies
// its stats and its class's release.
func (s *Simulator) finish(p *pass) {
	for _, fi := range p.fin {
		if h := &s.hot[fi]; h.rate > 0 {
			s.finSchedule(fi, h.lastT+h.remaining/h.rate)
		} else {
			s.finRemove(fi)
		}
	}
	s.stats.add(&p.stats)
	if tel := s.tel; tel != nil {
		tel.addEngine(&p.stats)
	}
	if p.root >= 0 {
		for i, q := range s.queued {
			if q == p {
				last := len(s.queued) - 1
				s.queued[i] = s.queued[last]
				s.queued = s.queued[:last]
				break
			}
		}
		s.spare = append(s.spare, p)
	}
}

// mayProcess reports whether the loop may process the next event, at t,
// with passes pending; when not, it has joined what was in the way and the
// loop must look again. An event past until or at +Inf ends the Run, so
// every pass joins first: one may schedule a finish before until.
func (s *Simulator) mayProcess(t, tArr, tFin, until float64) bool {
	if t > until || math.IsInf(t, 1) {
		s.joinAll()
		return false
	}
	tol := relEps * (math.Abs(t) + 1)
	for _, p := range s.queued {
		if lb := s.cls.lb[p.root]; !(t+tol < lb-relEps*(math.Abs(lb)+1)) {
			s.join(p)
			return false
		}
	}
	// A completion whose flow's class is pending may be stale: its pass may
	// re-key it.
	if tFin <= tArr && s.joinClassOf(s.fin[0].fi) {
		return false
	}
	return true
}

// joinClassOf joins the pass pending in fi's class, if there is one, and
// reports whether it did. fi is active and routed.
func (s *Simulator) joinClassOf(fi int32) bool {
	p := s.pendingIn(s.cls.find(s.linkArena[s.hot[fi].off]))
	if p != nil {
		s.join(p)
	}
	return p != nil
}

// endRun joins every pending pass and stops the helpers; each has exited when
// it returns.
func (s *Simulator) endRun() {
	s.joinAll()
	pl := &s.pool
	if !pl.started {
		return
	}
	pl.mu.Lock()
	pl.stop = true
	pl.mu.Unlock()
	for _, g := range pl.todo {
		g.post()
	}
	pl.wg.Wait()
	pl.todo, pl.started = pl.todo[:0], false
}

// compSpan indexes one link-sharing component inside the worker's compFlows /
// compLinks: flows [f0:f1), links [l0:l1).
type compSpan struct {
	f0, f1, l0, l1 int32
}

// bfsFrom expands compFlows/compLinks to the closure of the link-sharing
// relation, consuming the link queue from position q0 (seed links already
// appended and generation-marked). Each discovered flow is prepared (drained +
// pre-pass rate snapshot) on first visit, so the fills can run later —
// possibly on other goroutines — without touching shared state.
func (w *worker) bfsFrom(q0 int, gen uint64) {
	s := w.s
	for qi := q0; qi < len(w.compLinks); qi++ {
		for _, ref := range s.links[w.compLinks[qi]].flows {
			h := &s.hot[ref.fi]
			if h.visit == gen {
				continue
			}
			h.visit = gen
			w.prepare(h)
			w.compFlows = append(w.compFlows, ref.fi)
			for _, l2 := range s.linkArena[h.off : h.off+h.nl] {
				if s.linkGen[l2] != gen {
					s.linkGen[l2] = gen
					w.compLinks = append(w.compLinks, l2)
				}
			}
		}
	}
}

// decomposeFromSeeds builds the link-sharing components reachable from the
// pass's seed links. Seeds landing in an already-built component are skipped
// by the link generation mark, so each component is built exactly once.
func (w *worker) decomposeFromSeeds() {
	s, gen := w.s, w.p.gen+1
	w.comps, w.compFlows, w.compLinks = w.comps[:0], w.compFlows[:0], w.compLinks[:0]
	for _, seed := range w.p.seeds {
		if s.linkGen[seed] == gen {
			continue
		}
		s.linkGen[seed] = gen
		f0, l0 := len(w.compFlows), len(w.compLinks)
		w.compLinks = append(w.compLinks, seed)
		w.bfsFrom(l0, gen)
		if len(w.compFlows) == f0 {
			// A dirty link with no flows left (the last flow on it completed
			// or rerouted away): nothing shares it, nothing to fill, and its
			// rate was already zeroed by the eager detach.
			w.compLinks = w.compLinks[:l0]
			continue
		}
		w.comps = append(w.comps, compSpan{
			f0: int32(f0), f1: int32(len(w.compFlows)),
			l0: int32(l0), l1: int32(len(w.compLinks)),
		})
	}
}

// fillComponents fills every decomposed component, then seals flows and links
// in BFS component order.
func (w *worker) fillComponents() {
	var work int64
	for _, c := range w.comps {
		work += w.fillClosed(w.compFlows[c.f0:c.f1])
	}
	w.p.stats.Components += int64(len(w.comps))
	w.sealFlows(w.compFlows)
	w.sealLinks(w.compLinks)
	w.finishPass(work)
}
