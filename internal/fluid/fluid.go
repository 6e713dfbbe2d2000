// Package fluid is a discrete-event flow-level network simulator with
// max-min fair bandwidth sharing. It stands in for the packet-level
// simulator of the paper's failure study (Section 2.2): at coflow
// timescales, completion times are dominated by how link bandwidth is shared
// among competing flows, which the classical max-min (progressive-filling)
// model captures. The simulator supports mid-run rerouting and stalling, so
// failure and recovery events can be injected between runs.
//
// A dirty event recomputes only the flows it can affect: a ripple pass
// (ripple.go) that fills the flows on the dirty links and proves the result
// optimal with local bottleneck checks, or, when that proof does not close,
// the link-sharing components the dirty links reach (parallel.go). Max-min
// allocations decompose exactly over those components, so a scoped pass
// computes the global allocation; property_test.go replays randomized
// schedules through both to enforce it. Passes of disjoint link-sharing
// classes may run side by side, bit-identical at any worker count. The
// results are pinned bit for bit, so the member set of a pass and the order
// it engages them are part of the result. DESIGN.md §10 has the design.
package fluid

import (
	"fmt"
	"math"
	"slices"

	"sharebackup/internal/topo"
)

// FlowID identifies a flow within one Simulator. It is the flow's slot: the
// number of flows added before it.
type FlowID int64

// Flow is a handle onto one flow's state. The state itself lives in the
// simulator's slot-indexed tables; the handle carries only the slot index, so
// a *Flow held across reroutes and recomputes stays valid for the simulator's
// lifetime.
type Flow struct {
	fi  int32
	sim *Simulator
}

// Rate returns the flow's current max-min fair rate.
func (f *Flow) Rate() float64 { return f.sim.hot[f.fi].rate }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.sim.cold[f.fi].done }

// Finish returns the completion time; valid only when Done.
func (f *Flow) Finish() float64 { return f.sim.cold[f.fi].finish }

// Stalled reports whether the flow is active but disconnected.
func (f *Flow) Stalled() bool {
	c := &f.sim.cold[f.fi]
	return c.started && !c.done && c.rlen == 0
}

// linkRef is one entry of a per-link flow list: the flow's slot plus which
// position of its path the link occupies, so swap-removal can repair the
// moved flow's position entry in O(1).
type linkRef struct {
	fi   int32
	slot int32
}

// flowHot is everything a rate recomputation reads or writes about one flow,
// in one cache line. A ripple pass visits a few dozen flows picked by link
// membership — random slots among tens of thousands — so the unit of cost is
// the line, not the field (TestFlowRecordIsOneCacheLine pins the size).
type flowHot struct {
	rate      float64
	prevRate  float64 // rate before the in-flight recompute pass
	remaining float64 // bytes left as of lastT (drains lazily after that)
	lastT     float64
	visit     uint64 // component/ripple membership generation
	prep      uint64 // prepare() generation; guards one-drain-per-pass
	// The flow's route is linkArena[off : off+flowCold.rlen]. nl is how many
	// of those links it is attached to: all of them while active, none
	// before arrival or after completion. posArena (same span) holds its
	// position in each attached link's flow list.
	off int32
	nl  int32
	// cert is the flow's bottleneck certificate: a link where the flow was
	// last verified saturated-and-maximal (its freeze link from the last fill
	// that sealed it, or the link check (a) certified). -1 when unknown. The
	// ripple background checks use it as an O(1) fast path; see ripple.go.
	cert    topo.LinkID
	heapPos int32 // position in the finish heap, -1 when unscheduled
}

// flowCold is the rest of a flow's state: what only arrivals, completions,
// reroutes and the public accessors touch (TestFlowColdRecordSize pins the
// size). The route itself is in the incidence arena, the flow's size only in
// flowHot.remaining.
type flowCold struct {
	arrival float64 // FCT telemetry reads it at completion
	finish  float64
	active  int32 // index in active, -1 when not active
	cap     int32 // entries reserved for the slot's incidence span
	rlen    int32 // route length; 0 stalls the flow
	started bool
	done    bool
}

// linkState is one link's share of the engine state: the active flows
// crossing it, its capacity, and their aggregate rate — adjusted eagerly on
// attach/detach and refreshed exactly (resummed) on every seal, so the ripple
// pass can judge links outside its scope without touching their lists.
type linkState struct {
	flows []linkRef
	cap   float64
	rate  float64
}

// EngineStats counts the incremental engine's work in simulator-owned plain
// integers (telemetry-independent, so benchmarks and regression tests can
// assert on algorithmic cost instead of wall-clock).
type EngineStats struct {
	Recomputes       int64 // rate recomputation passes
	FullRecomputes   int64 // reference fills over the whole active set (tests force them)
	RecomputeWork    int64 // flow×link incidences touched by filling passes
	HeapPops         int64 // finish events consumed from the heap
	RipplePasses     int64 // scoped passes the ripple pass settled (an empty seed set settles trivially)
	RippleExpansions int64 // verification-driven ripple set growths
	RippleFallbacks  int64 // scoped passes the ripple pass handed to component BFS
	ParallelPasses   int64 // passes that ran off the loop, on a helper
	Components       int64 // link-sharing components filled across all passes
	FillRounds       int64 // progressive-filling rounds (one bottleneck level each)
	LinkScans        int64 // link slots visited by the per-round bottleneck search
	ScanRebuilds     int64 // of those searches, full scans that rebuilt the candidate list
}

// Simulator advances a set of flows over a capacitated topology.
//
// A FlowID is its slot: slots are assigned in AddFlow order and never
// reused. hot holds the per-slot record the recompute passes work on; cold
// holds the fields only the event loop and the accessors touch (DESIGN.md
// §10). The two grow together, by doubling.
type Simulator struct {
	topo  *topo.Topology
	links []linkState // indexed by topo.LinkID

	now float64

	hot  []flowHot  // indexed by slot
	cold []flowCold // indexed by slot

	// Each slot's route is its incidence span (flowHot.off, flowCold.cap
	// entries reserved, flowCold.rlen used), bump-allocated from the arena;
	// retired spans are garbage, compacted away when they dominate.
	linkArena    []topo.LinkID
	posArena     []int32
	arenaGarbage int

	active  []int32 // started, not done; index-mapped via flowCold.active
	pending arrivalHeap
	fin     finHeap // indexed finish-time heap; positions mirrored in flowHot.heapPos

	// Dirty tracking: links whose flow set or demand changed since the last
	// recompute seed the next pass, each once (dirty[l] says it is listed).
	// Loop-owned; a pass reads only the seeds newPass copied into it.
	dirtySeeds []topo.LinkID
	dirty      []bool
	forceFull  bool // tests only: every pass is the reference fill (fillUnion)

	// Generations the loop hands each pass (parallel.go): passGen stamps
	// prepare(), gen the visit marks — flowHot.visit, and linkGen per link
	// for the component BFS.
	linkGen []uint64
	gen     uint64
	passGen uint64

	// rIdx maps link ID -> its slot in the fill running over it (a ripple
	// pass's links list, or a component's engaged links); kept all -1 between
	// fills. Shared: passes and components filled at once touch disjoint links.
	rIdx []int32

	// Passes side by side (parallel.go): the link-sharing classes, one
	// worker's scratch per core (ws[0] is the loop's), the Run-scoped
	// helpers' work queue, the passes queued and not yet joined, the records
	// of joined ones for reuse, and the one record every pass the loop runs
	// at once uses.
	cls     classes
	workers int
	ws      []*worker
	pool    pool
	queued  []*pass
	spare   []*pass
	onLoop  pass

	stats EngineStats

	// tel, when non-nil, receives data-plane samples (flow lifecycle,
	// FCT/rate histograms); New reads it from the process default. Every
	// hook site is one nil check when telemetry is off, keeping the
	// simulator benchmark-clean. One Telemetry value may be shared by many
	// concurrent simulators: its counters and histograms are atomic.
	tel *Telemetry
}

// New creates a simulator over t. Link capacities are taken from the
// topology (bytes per second). The simulator samples into the process-wide
// default telemetry if one is installed when it is built
// (SetDefaultTelemetry).
func New(t *topo.Topology) *Simulator {
	nl := t.NumLinks()
	links := make([]linkState, nl)
	for i, l := range t.Links {
		links[i].cap = l.Capacity
	}
	s := &Simulator{
		topo:    t,
		links:   links,
		dirty:   make([]bool, nl),
		linkGen: make([]uint64, nl),
		rIdx:    make([]int32, nl),
		cls:     newClasses(nl),
		workers: 1,
		tel:     defaultTel.Load(),
	}
	for i := range s.rIdx {
		s.rIdx[i] = -1
	}
	s.ws = []*worker{{s: s}}
	return s
}

// SetWorkers sets how many cores Run may use (default 1, since simulators
// inside a sweep's shards already share every core; n < 1 clamps to 1): the
// event loop plus up to n-1 helper goroutines, which live only for one Run
// call and run recompute passes of link-sharing classes other than the one
// the loop works in. Results are bit-identical for any worker count
// (parallel.go has the rules).
func (s *Simulator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// ActiveCount returns the number of started, unfinished flows.
func (s *Simulator) ActiveCount() int { return len(s.active) }

// PendingCount returns the number of flows that have not arrived yet.
func (s *Simulator) PendingCount() int { return s.pending.Len() }

// Flow returns the flow's handle, or nil if unknown.
func (s *Simulator) Flow(id FlowID) *Flow {
	if !s.known(id) {
		return nil
	}
	return &Flow{fi: int32(id), sim: s}
}

func (s *Simulator) known(id FlowID) bool { return id >= 0 && id < FlowID(len(s.hot)) }

// Stats returns a snapshot of the engine's internal work counters.
func (s *Simulator) Stats() EngineStats { return s.stats }

// AddFlow schedules a flow. A FlowID is its slot: id must be the number of
// flows added so far, so callers number flows 0, 1, 2, … in call order. Bytes
// must be positive and finite, arrival finite and not in the simulator's
// past, and every link of the path inside the topology. A zero-length path
// stalls the flow from the start. The route's links are copied; Nodes is
// never read.
func (s *Simulator) AddFlow(id FlowID, bytes, arrival float64, path topo.Path) error {
	if next := FlowID(len(s.hot)); id != next {
		return fmt.Errorf("fluid: flow %d is not the next ID (%d)", id, next)
	}
	if bytes <= 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		return fmt.Errorf("fluid: flow %d: bytes %v must be positive and finite", id, bytes)
	}
	if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
		return fmt.Errorf("fluid: flow %d: arrival %v must be finite", id, arrival)
	}
	if arrival < s.now {
		return fmt.Errorf("fluid: flow %d arrives at %v, before now (%v)", id, arrival, s.now)
	}
	if err := s.checkRoute("fluid: ", id, path.Links); err != nil {
		return err
	}
	fi := int32(id)
	// hot and cold start empty and grow by the same rule, so they double
	// together.
	s.hot, s.cold = grow(s.hot, 1), grow(s.cold, 1)
	s.hot[fi] = flowHot{remaining: bytes, off: -1, cert: -1, heapPos: -1}
	s.cold[fi] = flowCold{arrival: arrival, active: -1}
	s.setRoute(fi, path.Links)
	s.pending.push(arrEvent{at: arrival, fi: fi})
	return nil
}

// checkRoute rejects a link the topology does not have: per-link state is
// indexed by link ID, so one would otherwise panic inside Run.
func (s *Simulator) checkRoute(op string, id FlowID, links []topo.LinkID) error {
	for _, l := range links {
		if l < 0 || int(l) >= len(s.links) {
			return fmt.Errorf("%sflow %d: link %d is outside the topology (%d links)", op, id, l, len(s.links))
		}
	}
	return nil
}

// grow returns s lengthened by n, doubling the backing array when it is
// full. Every per-flow table grows by this one rule: append's 1.25× steps
// for large slices copy a multi-megabyte table more often, and each copy is
// too large for any span an earlier one freed.
func grow[S ~[]E, E any](s S, n int) S {
	l := len(s) + n
	if l <= cap(s) {
		return s[:l]
	}
	c := 2 * cap(s)
	if c < l {
		c = l
	}
	g := make(S, l, c)
	copy(g, s)
	return g
}

// SetPath reroutes (or stalls, with an empty path) an active or pending
// flow at the current time. Completed flows are rejected, and so is a link
// outside the topology. The route's links are copied; Nodes is never read.
func (s *Simulator) SetPath(id FlowID, path topo.Path) error {
	if !s.known(id) {
		return fmt.Errorf("fluid: SetPath: unknown flow %d", id)
	}
	fi := int32(id)
	if s.cold[fi].done {
		return fmt.Errorf("fluid: SetPath: flow %d already completed", id)
	}
	if err := s.checkRoute("fluid: SetPath: ", id, path.Links); err != nil {
		return err
	}
	if tel := s.tel; tel != nil {
		if len(path.Links) == 0 {
			tel.Stalls.Inc()
		} else {
			tel.Reroutes.Inc()
		}
	}
	// The certificate names a link on the old path; it can't survive a
	// route change.
	s.hot[fi].cert = -1
	if !s.cold[fi].started {
		// Pending flow: just swap the route; rates don't depend on it yet.
		s.setRoute(fi, path.Links)
		return nil
	}
	// Materialize bytes at the old rate before the route (and hence the
	// rate) changes, then perturb both the old and new components. The
	// finish event is NOT touched here: if the recompute lands on the same
	// rate, the existing event is still exact. Only a rate change moves it —
	// in seal, or right below for a stall (the one rate change that happens
	// outside a filling pass).
	drain(&s.hot[fi], s.now)
	s.detachLinks(fi)
	s.setRoute(fi, path.Links)
	s.attachLinks(fi)
	if len(path.Links) == 0 && s.hot[fi].rate != 0 {
		s.hot[fi].rate = 0 // stalled immediately; no finish event until rerouted
		s.finRemove(fi)
	}
	return nil
}

// drain materializes the flow's remaining bytes up to now at its current
// rate. Must be called before any change to its rate.
func drain(h *flowHot, now float64) {
	if r := h.rate; r > 0 && now > h.lastT {
		rem := h.remaining - r*(now-h.lastT)
		if rem < 0 {
			rem = 0
		}
		h.remaining = rem
	}
	h.lastT = now
}

// prepare drains the flow to the pass's time and snapshots its pre-pass
// rate, exactly once per recompute pass: the prep generation guards re-entry,
// so a ripple pass that bails into the component fallback cannot clobber the
// true pre-pass rate with abandoned fill state.
func (w *worker) prepare(h *flowHot) {
	if h.prep == w.p.passGen {
		return
	}
	h.prep = w.p.passGen
	drain(h, w.p.now)
	h.prevRate = h.rate
}

// setRoute copies a detached slot's new route into its incidence span,
// moving it to a fresh span when the route outgrows the old one.
func (s *Simulator) setRoute(fi int32, links []topo.LinkID) {
	n := int32(len(links))
	if s.cold[fi].cap < n {
		s.growSpan(fi, n)
	}
	if n > 0 {
		off := s.hot[fi].off
		copy(s.linkArena[off:off+n], links)
	}
	s.cold[fi].rlen = n
}

// attachLinks adds the flow to the per-link flow lists of its route, adds
// its rate into the links' aggregates, marks those links dirty, and merges
// their classes.
func (s *Simulator) attachLinks(fi int32) {
	h := &s.hot[fi]
	n := s.cold[fi].rlen
	h.nl = n
	if n == 0 {
		return
	}
	off, rate := h.off, h.rate
	s.classify(fi, s.linkArena[off:off+n])
	for j, l := range s.linkArena[off : off+n] {
		ls := &s.links[l]
		s.posArena[off+int32(j)] = int32(len(ls.flows))
		ls.flows = append(ls.flows, linkRef{fi: fi, slot: int32(j)})
		if rate != 0 {
			ls.rate += rate
		}
		s.markDirty(l)
	}
}

// growSpan gives the slot a fresh incidence span of n entries at the arena
// tail, retiring any previous span as garbage and compacting the arena when
// garbage dominates it.
func (s *Simulator) growSpan(fi, n int32) {
	c := &s.cold[fi]
	if c.cap > 0 {
		s.arenaGarbage += int(c.cap)
		s.hot[fi].off, c.cap = -1, 0
	}
	if s.arenaGarbage > len(s.linkArena)/2 && len(s.linkArena) > 4096 {
		s.compactArena()
	}
	s.hot[fi].off, c.cap = int32(len(s.linkArena)), n
	s.linkArena = grow(s.linkArena, int(n))
	s.posArena = grow(s.posArena, int(n))
}

// compactArena rewrites the incidence arenas keeping only the routes that
// can still be read: every flow not done keeps its rlen entries, pending and
// active alike; retired spans and completed flows' routes drop. posArena
// values are positions in the links' flow lists, unaffected by the move.
func (s *Simulator) compactArena() {
	live := len(s.linkArena) - s.arenaGarbage
	if live < 0 {
		live = 0
	}
	nla := make([]topo.LinkID, 0, live)
	npa := make([]int32, 0, live)
	for fi := range s.hot {
		h, c := &s.hot[fi], &s.cold[fi]
		keep := c.rlen
		if c.done || keep > c.cap {
			// Done, or the slot growSpan is moving (its span already
			// retired): nothing to keep.
			keep = 0
		}
		if keep == 0 {
			h.off, c.cap, c.rlen = -1, 0, 0
			continue
		}
		off := h.off
		h.off, c.cap = int32(len(nla)), keep
		nla = append(nla, s.linkArena[off:off+keep]...)
		npa = append(npa, s.posArena[off:off+keep]...)
	}
	s.linkArena, s.posArena = nla, npa
	s.arenaGarbage = 0
}

// detachLinks removes the flow from the per-link flow lists of its current
// path (swap-remove, repairing the moved entry's back-position), subtracts
// its rate from the links' aggregates, and marks those links dirty.
func (s *Simulator) detachLinks(fi int32) {
	h := &s.hot[fi]
	off, n, rate := h.off, h.nl, h.rate
	for j := int32(0); j < n; j++ {
		l := s.linkArena[off+j]
		ls := &s.links[l]
		list := ls.flows
		i := s.posArena[off+j]
		last := int32(len(list) - 1)
		moved := list[last]
		list[i] = moved
		s.posArena[s.hot[moved.fi].off+moved.slot] = i
		ls.flows = list[:last]
		if last == 0 {
			ls.rate = 0 // emptied: exact zero, no float residue
		} else if rate != 0 {
			ls.rate -= rate
		}
		s.markDirty(l)
	}
	h.nl = 0
}

// markDirty lists l as a seed of the next pass, unless it is listed already.
func (s *Simulator) markDirty(l topo.LinkID) {
	if !s.dirty[l] {
		s.dirty[l] = true
		s.dirtySeeds = append(s.dirtySeeds, l)
	}
}

// Run advances the simulation until `until` (inclusive), processing every
// arrival and completion in time order. It may be called repeatedly;
// callers inject failures by mutating paths between calls. Run(+Inf)
// returns once no arrival or completion is left — every flow finished, or
// only stalled ones remain — with Now at the last event.
func (s *Simulator) Run(until float64) error {
	if math.IsNaN(until) {
		return fmt.Errorf("fluid: Run(NaN): until must be a time")
	}
	if until < s.now {
		return fmt.Errorf("fluid: Run(%v) is before now (%v)", until, s.now)
	}
	defer s.endRun()
	for s.pending.Len() > 0 || len(s.active) > 0 {
		s.recompute()
		tArr := math.Inf(1)
		if s.pending.Len() > 0 {
			tArr = s.pending[0].at
		}
		tFin := s.nextFinishTime()
		t := math.Min(tArr, tFin)
		if len(s.queued) > 0 && !s.mayProcess(t, tArr, tFin, until) {
			continue
		}
		if t > until {
			s.now = until
			return nil
		}
		if math.IsInf(t, 1) {
			return nil // until is +Inf, and only stalled flows are left
		}
		s.now = t
		if tArr <= tFin {
			s.admitArrivals(tArr)
		} else {
			s.completeDue()
		}
	}
	if !math.IsInf(until, 1) {
		s.now = until
	}
	return nil
}

// RunToCompletion advances until every flow has arrived and finished, or
// returns an error if progress is impossible (stalled flows with nothing
// else happening).
func (s *Simulator) RunToCompletion() error {
	if err := s.Run(math.Inf(1)); err != nil {
		return err
	}
	if len(s.active) > 0 {
		return fmt.Errorf("fluid: %d stalled flows cannot make progress", len(s.active))
	}
	return nil
}

// admitArrivals starts every pending flow arriving exactly at t, so a batch
// of simultaneous arrivals costs one rate recomputation instead of one each.
func (s *Simulator) admitArrivals(t float64) {
	admitted := 0
	for s.pending.Len() > 0 && s.pending[0].at == t {
		fi := s.pending.pop().fi
		s.cold[fi].started = true
		s.cold[fi].active = int32(len(s.active))
		s.hot[fi].lastT = t
		s.active = append(s.active, fi)
		s.attachLinks(fi)
		admitted++
	}
	if tel := s.tel; tel != nil {
		tel.FlowsStarted.Add(int64(admitted))
		tel.ActiveFlows.Set(int64(len(s.active)))
	}
}

// nextFinishTime peeks the earliest finish event. The indexed heap holds at
// most one — always current — entry per active flow, so the head is the
// answer with no validity filtering.
func (s *Simulator) nextFinishTime() float64 {
	if s.fin.Len() > 0 {
		return s.fin[0].t
	}
	return math.Inf(1)
}

// completeDue completes every flow whose finish event falls within relEps of
// the current time, so cohorts finishing together cost one rate
// recomputation instead of one each. The heap orders ties by slot — the flow
// ID — which keeps completion order deterministic and ID-sorted like the
// seed's scan.
func (s *Simulator) completeDue() {
	tol := relEps * (math.Abs(s.now) + 1)
	for s.fin.Len() > 0 {
		e := s.fin[0]
		if e.t > s.now+tol {
			return
		}
		if len(s.queued) > 0 && s.joinClassOf(e.fi) {
			continue // its pass may have moved the head
		}
		s.finPopHead()
		s.stats.HeapPops++
		s.complete(e.fi)
	}
}

const (
	eps = 1e-12
	// relEps is the relative tolerance below which a flow's remaining
	// bytes are treated as finished, so that flows completing at the
	// same instant are batched into one event.
	relEps = 1e-9
	// satTol merges bottleneck links whose fair shares tie within this
	// relative tolerance into one progressive-filling round. It must stay
	// at float-rounding scale: the merge outcome depends on which links
	// share a pass, so any tolerance wide enough to capture genuinely
	// different capacities would make component-scoped passes disagree
	// with full passes and void the exact-decomposition invariant
	// (exercised by TestDifferentialIncrementalVsFull, seed 1081: two
	// random capacities 1.2e-6 apart).
	satTol = 1e-12
)

func (s *Simulator) complete(fi int32) {
	c := &s.cold[fi]
	c.done, c.finish = true, s.now
	h := &s.hot[fi]
	s.detachLinks(fi) // subtracts the still-current rate from the links' aggregates
	h.rate, h.remaining, h.lastT = 0, 0, s.now
	// Swap-remove from the active set; the index field keeps this O(1)
	// regardless of cohort size.
	i := c.active
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[i] = moved
	s.cold[moved].active = i
	s.active = s.active[:last]
	c.active = -1
	if tel := s.tel; tel != nil {
		tel.FlowsCompleted.Inc()
		tel.ActiveFlows.Set(int64(len(s.active)))
		tel.FCT.Record(int64((s.now - c.arrival) * 1e6)) // seconds → µs
	}
}

// fillUnion is the reference pass tests force (Simulator.forceFull): prepare
// and fill the whole active set as one union, the reference the differential
// tests hold scoped passes to.
func (w *worker) fillUnion() {
	s := w.s
	for _, fi := range s.active {
		w.prepare(&s.hot[fi])
	}
	work := w.fillClosed(s.active)
	w.sealFlows(s.active)
	w.sealLinks(w.sc.engaged)
	w.finishPass(work)
}

// fillClosed fills a set closed under link sharing — a component, or the
// whole active set — and leaves its links in sc.engaged for the caller's
// seal. No flow outside the set crosses those links, so the set-up finds no
// background on any of them and starts each slot at cap / members. It returns
// the work: incidences engaged plus the rounds' slot counts.
func (w *worker) fillClosed(flows []int32) int64 {
	links, work, _ := w.fill(flows, 0, w.sc.engaged[:0])
	for _, l := range links {
		w.s.rIdx[l] = -1
	}
	w.sc.engaged = links
	return work
}

// sealFlows re-keys the finish event of every flow whose rate actually
// changed in the pass; bit-identical rates keep their exact heap entries
// untouched. The finish heap is the loop's, so the pass records the flows and
// the loop re-keys them when it finishes the pass, in this same flow order
// (the indexed heap makes the result order-independent anyway: each flow's
// single entry ends at the same key).
func (w *worker) sealFlows(flows []int32) {
	s, p := w.s, w.p
	p.fin = slices.Grow(p.fin, len(flows)) // one exact growth, not a doubling series
	for _, fi := range flows {
		h := &s.hot[fi]
		if h.rate < 0 {
			h.rate = 0 // defensive: unfrozen sentinel from an aborted fill round
		}
		if h.rate != h.prevRate {
			p.fin = append(p.fin, fi)
		}
	}
}

// sealLinks refreshes each touched link's aggregate rate with the exact sum
// of attached rates, so eager attach/detach adjustments can't accumulate
// float drift between passes. The closed passes seal this way rather than
// from the fill's vSum, which adds the same rates in freeze order: a
// different rounding, and the pinned results are the resum's.
func (w *worker) sealLinks(links []topo.LinkID) {
	s := w.s
	for _, l := range links {
		ls := &s.links[l]
		sum := 0.0
		for _, ref := range ls.flows {
			sum += s.hot[ref.fi].rate
		}
		ls.rate = sum
	}
}

// finishPass books the pass work and the worker's fill counters into the
// pass's stats.
func (w *worker) finishPass(work int64) {
	st, sc := &w.p.stats, &w.sc
	st.RecomputeWork += work
	st.FillRounds += sc.rounds
	st.LinkScans += sc.scans
	st.ScanRebuilds += sc.rebuilds
	sc.rounds, sc.scans, sc.rebuilds = 0, 0, 0
}

// add sums d into st.
func (st *EngineStats) add(d *EngineStats) {
	st.Recomputes += d.Recomputes
	st.FullRecomputes += d.FullRecomputes
	st.RecomputeWork += d.RecomputeWork
	st.HeapPops += d.HeapPops
	st.RipplePasses += d.RipplePasses
	st.RippleExpansions += d.RippleExpansions
	st.RippleFallbacks += d.RippleFallbacks
	st.ParallelPasses += d.ParallelPasses
	st.Components += d.Components
	st.FillRounds += d.FillRounds
	st.LinkScans += d.LinkScans
	st.ScanRebuilds += d.ScanRebuilds
}

// fillScratch is one worker's progressive-filling state; each worker owns
// one, so fills on different workers never share mutable state. The per-slot
// arrays are indexed by the fill's slot numbers, and s.rIdx maps a link to its
// slot; the fill's links list (the ripple pass's, or engaged) maps back.
// members and prevSum outlive a fill, so a ripple refill engages only the
// flows an expansion appended.
type fillScratch struct {
	engaged []topo.LinkID // a closed fill's links: valid until the scratch's next fill
	members []int32       // flows of the set on the slot's link
	prevSum []float64     // their pre-pass rates, summed in engagement order
	avail   []float64
	count   []int32   // members still unfrozen
	satLv   []float64 // avail/count, the level the link saturates at; +Inf once parked
	// The ripple verification sweep's per-slot results: vSum the background
	// sum plus member rates, vMax the member maximum, vBG the background
	// maximum (-1 without background, bgUnknown until walked), vSat
	// saturation, vChg whether a member's rate moved. Closed fills keep them
	// too; nothing reads them there.
	vSum []float64
	vMax []float64
	vBG  []float64
	vSat []bool
	vChg []bool
	// search state: cand holds, in slot order, every slot whose level was
	// within thr at the last full scan and has not been seen above it since.
	cand    []int32
	thr     float64
	satList []int32
	// rounds, scans and rebuilds accumulate the fills' round, slot-visit and
	// full-scan counts until finishPass folds them into the pass's stats.
	rounds, scans, rebuilds int64
}

// size gives every per-slot array n entries; like engage's new slots, they
// grow by grow's rule.
func (sc *fillScratch) size(n int) {
	sc.members, sc.prevSum = fit(sc.members, n), fit(sc.prevSum, n)
	sc.avail, sc.count, sc.satLv = fit(sc.avail, n), fit(sc.count, n), fit(sc.satLv, n)
	sc.vSum, sc.vMax, sc.vBG = fit(sc.vSum, n), fit(sc.vMax, n), fit(sc.vBG, n)
	sc.vSat, sc.vChg = fit(sc.vSat, n), fit(sc.vChg, n)
}

// fit returns s with n entries, its first ones kept.
func fit[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		return s[:n]
	}
	return grow(s, n-len(s))
}

// candFactor is how far above the bottleneck level a full scan still collects
// candidates. Wider means more slots re-read every round, narrower means the
// list drains and is rebuilt sooner.
const candFactor = 1.5

// tieCut returns the level a round freezes at — the lowest saturation level,
// but never below the current one (rounding guard) — and the cut under which
// links saturate together with it. Exact ties in symmetric fabrics collapse
// into one round; satTol stays at rounding scale (see its comment).
func tieCut(minL, level float64) (lo, cut float64) {
	lo = minL
	if lo < level {
		lo = level
	}
	return lo, lo + (satTol*lo + eps)
}

// search finds one round's bottleneck: it returns the level to freeze at and
// the tie cut, and leaves in satList, in slot order, every slot whose
// saturation level is within the cut — exactly the slots an exhaustive scan
// of satLv selects (kernel_property_test.go checks it round by round). A
// slot's level only rises during a fill: freezing a flow at the water level
// takes no more than a fair share from each link it crosses. So the slots
// above thr at the last full scan are still above it, and while the cut stays
// within thr the search reads only the candidates, dropping those that rose
// past thr (a parked slot sits at +Inf). When the list empties, or the cut
// outgrows thr, one full scan rebuilds it around the new minimum; thr only
// falls during that scan, so what it collects is a superset that later rounds
// trim. A caller that lets a level fall — rounding can, see waterFill — must
// empty cand, which forces the full scan. ok is false when no slot has an
// unfrozen flow left.
func (sc *fillScratch) search(level float64) (lo, cut float64, ok bool) {
	satLv, thr := sc.satLv, sc.thr
	minL := math.Inf(1)
	cand := sc.cand[:0]
	for _, i := range sc.cand {
		lv := satLv[i]
		if lv > thr {
			continue
		}
		cand = append(cand, i)
		if lv < minL {
			minL = lv
		}
	}
	sc.scans += int64(len(sc.cand))
	lo, cut = tieCut(minL, level)
	if len(cand) == 0 || cut > thr {
		cand, minL, thr = cand[:0], math.Inf(1), math.MaxFloat64
		for i, lv := range satLv {
			if lv > thr {
				continue
			}
			cand = append(cand, int32(i))
			if lv < minL {
				minL = lv
				lo, cut = tieCut(lv, level)
				if thr = candFactor * lo; thr < cut {
					thr = cut
				}
			}
		}
		sc.scans += int64(len(satLv))
		sc.rebuilds++
		sc.thr = thr
	}
	sc.cand = cand
	sat := sc.satList[:0]
	for _, i := range cand {
		if satLv[i] <= cut {
			sat = append(sat, i)
		}
	}
	sc.satList = sat
	return lo, cut, !math.IsInf(minL, 1)
}

// bgUnknown marks a vBG entry whose link carries background flows but whose
// background maximum has not been walked yet this round; the ripple checks
// resolve it lazily (and cache it) only when a decision actually needs it.
const bgUnknown = -2

// engage adds flows to a fill's slot tables: every link a flow crosses counts
// it as a member, a link seen for the first time takes the next slot (s.rIdx
// and links record it), and the link's prevSum accumulates the flow's pre-pass
// rate. Routed flows are marked unfrozen with rate -1 — a member can
// legitimately freeze at level 0 (background consuming a full link), so zero
// cannot mark frozenness — and stalled flows get rate zero. It returns the
// grown links list and how many flows and incidences it engaged.
func (w *worker) engage(flows []int32, links []topo.LinkID) ([]topo.LinkID, int, int) {
	s, sc := w.s, &w.sc
	idx, members, prevSum := s.rIdx, sc.members, sc.prevSum
	routed, incid := 0, 0
	for _, fi := range flows {
		h := &s.hot[fi]
		if h.nl == 0 {
			h.rate = 0
			continue
		}
		h.rate = -1
		routed++
		incid += int(h.nl)
		pr := h.prevRate
		for _, l := range s.linkArena[h.off : h.off+h.nl] {
			li := idx[l]
			if li < 0 {
				li = int32(len(links))
				idx[l] = li
				links = append(links, l)
				members, prevSum = grow(members, 1), grow(prevSum, 1)
				members[li], prevSum[li] = 0, 0
			}
			members[li]++
			prevSum[li] += pr
		}
	}
	sc.members, sc.prevSum = members, prevSum
	return links, routed, incid
}

// fill is the one max-min fill: progressive filling (water-filling) over
// flows, with every flow outside them frozen at its current rate and each
// link offering only its residual capacity. All unfrozen flows' rates rise
// together; when a link saturates, its flows freeze at the current level.
// flows[:from] are the members the pass's previous fill already engaged, so
// set-up costs O(slots + new incidences): only flows[from:] are engaged, and
// every slot's residual is re-derived without a list walk. New links are
// appended to links with s.rIdx assigned; the caller owns restoring rIdx, and
// seals afterwards — rates are final on return, but finish events and link
// rates are not yet updated — which is what makes concurrent fills of disjoint
// classes safe: the fill writes only its flows' rate and certificate entries
// and its own scratch. It returns the grown links list and the work
// (incidences engaged plus the rounds' slot counts); the boolean is false only
// on waterFill's defensive break.
func (w *worker) fill(flows []int32, from int, links []topo.LinkID) ([]topo.LinkID, int64, bool) {
	links, unfrozen, incid := w.setUpFill(flows, from, links)
	work, ok := w.waterFill(links, unfrozen)
	return links, int64(incid) + work, ok
}

// setUpFill is fill up to the first round: slot tables and verification
// arrays ready, members marked unfrozen. A link whose member count equals its
// list length carries no background — every link of a closed set, and the
// common case for the rack-local links a ripple pass centres on — and keeps
// full capacity; the rest subtract the link's maintained aggregate rate minus
// the members' pre-pass rates. vSum starts at the background sum, and vBG is
// the no-background (-1) / bgUnknown marker the ripple checks resolve lazily;
// waterFill finishes them. It returns the grown links list, the number of
// unfrozen members and the incidences engaged.
func (w *worker) setUpFill(flows []int32, from int, links []topo.LinkID) ([]topo.LinkID, int, int) {
	s, sc := w.s, &w.sc
	unfrozen := 0
	for _, fi := range flows[:from] {
		if h := &s.hot[fi]; h.nl > 0 {
			h.rate = -1
			unfrozen++
		}
	}
	sc.size(len(links)) // the slots filled so far keep their members
	links, routed, incid := w.engage(flows[from:], links)
	sc.size(len(links))
	vSum, vMax, vBG, vChg := sc.vSum, sc.vMax, sc.vBG, sc.vChg
	members, prevSum := sc.members, sc.prevSum
	avail, count, satLv := sc.avail, sc.count, sc.satLv
	for i, l := range links {
		vMax[i], vChg[i] = 0, false
		ls := &s.links[l]
		a, m := ls.cap, members[i]
		if int(m) == len(ls.flows) {
			vSum[i], vBG[i] = 0, -1
		} else {
			bg := ls.rate - prevSum[i]
			if bg < 0 {
				bg = 0
			}
			vSum[i], vBG[i] = bg, bgUnknown
			if a -= bg; a < 0 {
				a = 0
			}
		}
		avail[i], count[i], satLv[i] = a, m, a/float64(m)
	}
	return links, unfrozen + routed, incid
}

// waterFill runs the rounds of a fill whose slot arrays are set up: search
// picks the saturating slots and the level, freezeRound freezes their unfrozen
// members at it. The result is false only on the defensive no-live-links
// break, which leaves rates at -1 and the verification arrays inconsistent;
// ripple must fall back, and a closed pass's sealFlows zeroes them.
func (w *worker) waterFill(links []topo.LinkID, unfrozen int) (int64, bool) {
	sc := &w.sc
	sc.cand = sc.cand[:0]
	level := 0.0
	live := len(links) // slots that still have unfrozen flows
	var work int64
	for unfrozen > 0 {
		lo, cut, ok := sc.search(level)
		sc.rounds++
		work += int64(live)
		if !ok {
			return work, false // defensive; cannot happen while unfrozen > 0
		}
		level = lo
		frozen, parked, incid := w.freezeRound(links, level, cut)
		unfrozen -= frozen
		live -= parked
		work += incid
	}
	return work, true
}

// freezeRound freezes, at level, the unfrozen member flows of the slots search
// left in satList — rate set, certificate recorded, every link the flow
// crosses loses one unfrozen count and the frozen allocation, and its
// saturation level is re-derived (a link losing its last unfrozen flow parks
// at +Inf, which no search selects). The walk is the saturating link's own
// flow list; frozen members and non-members (whose rates are never negative)
// are skipped by the same test, and the walk stops at the
// slot's last unfrozen member — count says when — instead of reading the rest
// of the list to find nothing; a slot that an earlier slot of the round
// already emptied is not walked at all. Within a round every flow freezes at
// the same level, so neither the walk order nor where it stops can change a
// rate, a residual or a certificate. The freeze also folds the member into
// the verification arrays: vSum accumulates its rate, vMax
// tracks the member maximum (levels are nondecreasing, so the last write is
// the max) and vChg marks links whose members moved. It returns the flows
// frozen, the slots parked and the incidences touched.
func (w *worker) freezeRound(links []topo.LinkID, level, cut float64) (frozen, parked int, incid int64) {
	s, sc := w.s, &w.sc
	idx := s.rIdx
	avail, count, satLv := sc.avail, sc.count, sc.satLv
	hot, arena := s.hot, s.linkArena
	vSum, vMax, vChg := sc.vSum, sc.vMax, sc.vChg
	for _, li := range sc.satList {
		if count[li] == 0 {
			continue
		}
		cert := links[li]
		for _, ref := range s.links[cert].flows {
			h := &hot[ref.fi]
			if h.rate >= 0 {
				continue // frozen this pass, or background
			}
			h.rate = level
			h.cert = cert
			pr := h.prevRate
			chg := math.Abs(level-pr) > rippleTol*(pr+1)
			for _, l2 := range arena[h.off : h.off+h.nl] {
				li2 := idx[l2]
				c := count[li2] - 1
				count[li2] = c
				a := avail[li2] - level
				avail[li2] = a
				if c > 0 {
					lv := a / float64(c)
					if lv < satLv[li2] && satLv[li2] > cut {
						// Rounding lowered the level of a link that outlives
						// the round (one within the cut is about to park), so
						// the candidate list no longer bounds it: drop the
						// list, search rescans.
						sc.cand = sc.cand[:0]
					}
					satLv[li2] = lv
				} else {
					satLv[li2] = math.Inf(1)
					parked++
				}
				vSum[li2] += level
				vMax[li2] = level
				if chg {
					vChg[li2] = true
				}
			}
			incid += int64(h.nl)
			frozen++
			if count[li] == 0 {
				break
			}
		}
	}
	return frozen, parked, incid
}

// arrEvent is one scheduled arrival.
type arrEvent struct {
	at float64
	fi int32
}

// arrivalHeap orders pending arrivals by time, then slot (the flow ID) for
// determinism. Hand-rolled (not container/heap) so push/pop stay inlineable
// and free of interface boxing on the hot path.
type arrivalHeap []arrEvent

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].fi < h[j].fi
}

func (h *arrivalHeap) push(e arrEvent) {
	a := grow(*h, 1)
	a[len(a)-1] = e
	*h = a
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *arrivalHeap) pop() arrEvent {
	a := *h
	e := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a.less(c+1, c) {
			c++
		}
		if !a.less(c, i) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	return e
}
