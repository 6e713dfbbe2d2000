// Package fluid is a discrete-event flow-level network simulator with
// max-min fair bandwidth sharing. It stands in for the packet-level
// simulator of the paper's failure study (Section 2.2): at coflow
// timescales, completion times are dominated by how link bandwidth is shared
// among competing flows, which the classical max-min (progressive-filling)
// model captures. The simulator supports mid-run rerouting and stalling, so
// failure and recovery events can be injected between runs.
//
// The hot path is incremental and cache-friendly (DESIGN.md §10, §15): flow
// state lives in structure-of-arrays columns indexed by dense slot numbers
// (no per-flow heap objects on the hot path), link incidence is packed into
// shared index arenas, and a dirty event recomputes only a scoped flow set —
// first trying a "ripple" pass that fills just the flows on the dirty links
// and proves optimality via local bottleneck checks (ripple.go), falling
// back to exact link-sharing component decomposition (parallel.go), which
// can fill independent components on a bounded worker pool with bit-identical
// results for any worker count. The next completion comes from a
// lazily-invalidated finish-time heap instead of a scan, and bytes drain
// lazily so advancing time is O(1). Max-min allocations decompose exactly
// over link-sharing components, so scoped recomputation is equivalent to the
// global algorithm; the differential property tests in property_test.go
// replay randomized schedules through both engines to enforce it.
package fluid

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"sharebackup/internal/obs/prof"
	"sharebackup/internal/topo"
)

// FlowID identifies a flow within one Simulator.
type FlowID int64

// Flow is a stable handle onto one flow's state. The state itself lives in
// the simulator's structure-of-arrays columns; the handle carries only the
// slot index, so a *Flow held across reroutes, recomputes, and other flows'
// slot recycling stays valid. Handles live in chunked slabs that never move.
// A handle becomes invalid only when its own flow is ReleaseFlow'd.
type Flow struct {
	id  FlowID
	fi  int32
	sim *Simulator
}

// ID returns the flow's identifier.
func (f *Flow) ID() FlowID { return f.id }

// Bytes returns the flow's total transfer size.
func (f *Flow) Bytes() float64 { return f.sim.fBytes[f.fi] }

// Arrival returns the flow's arrival time in seconds.
func (f *Flow) Arrival() float64 { return f.sim.fArrival[f.fi] }

// Path returns the flow's current route. An empty path means the flow is
// stalled (disconnected): it holds its remaining bytes at zero rate.
func (f *Flow) Path() topo.Path { return f.sim.fPath[f.fi] }

// Remaining returns the bytes the flow still has to transfer. Bytes drain
// lazily between rate changes, so the value is materialized on demand from
// the current rate and the simulator clock.
func (f *Flow) Remaining() float64 {
	s, fi := f.sim, f.fi
	r := s.fRemaining[fi]
	if !s.fStarted[fi] || s.fDone[fi] {
		return r
	}
	if rate := s.fRate[fi]; rate > 0 {
		r -= rate * (s.now - s.fLastT[fi])
		if r < 0 {
			r = 0
		}
	}
	return r
}

// Rate returns the flow's current max-min fair rate.
func (f *Flow) Rate() float64 { return f.sim.fRate[f.fi] }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.sim.fDone[f.fi] }

// Finish returns the completion time; valid only when Done.
func (f *Flow) Finish() float64 { return f.sim.fFinish[f.fi] }

// Stalled reports whether the flow is active but disconnected.
func (f *Flow) Stalled() bool {
	s, fi := f.sim, f.fi
	return s.fStarted[fi] && !s.fDone[fi] && len(s.fPath[fi].Links) == 0
}

// Handle slabs are fixed-size chunks so handle addresses are stable as the
// flow population grows (appending chunks never moves existing ones).
const (
	handleShift = 8
	handleSize  = 1 << handleShift
	handleMask  = handleSize - 1
)

type handleChunk [handleSize]Flow

// linkRef is one entry of a per-link flow list: the flow's slot plus which
// position of its path the link occupies, so swap-removal can repair the
// moved flow's position entry in O(1).
type linkRef struct {
	fi   int32
	slot int32
}

// EngineStats counts the incremental engine's work in simulator-owned plain
// integers (telemetry-independent, so benchmarks and regression tests can
// assert on algorithmic cost instead of wall-clock).
type EngineStats struct {
	Recomputes       int64 // rate recomputation passes (scoped or full)
	FullRecomputes   int64 // passes that ran over the whole active set
	RecomputeWork    int64 // flow×link incidences touched by filling passes
	HeapPops         int64 // finish events consumed from the heap
	RipplePasses     int64 // scoped passes the ripple pass settled (an empty seed set settles trivially)
	RippleExpansions int64 // verification-driven ripple set growths
	RippleFallbacks  int64 // scoped passes the ripple pass handed to component BFS
	ParallelPasses   int64 // component fills run on the worker pool
	Components       int64 // link-sharing components filled across all passes
	FillRounds       int64 // progressive-filling rounds (one bottleneck level each)
	LinkScans        int64 // link slots visited by the per-round bottleneck search
	ScanRebuilds     int64 // of those searches, full scans that rebuilt the candidate list
}

// Simulator advances a set of flows over a capacitated topology.
//
// Flow state is structure-of-arrays: every per-flow field is a column slice
// indexed by the flow's slot (DESIGN.md §15). Component BFS, progressive
// filling, and the ripple verification sweep walk these columns and the
// packed link-incidence arena contiguously, with no per-flow pointer chasing.
type Simulator struct {
	topo *topo.Topology
	caps []float64

	now float64

	// --- per-flow columns, indexed by slot ---
	fID        []FlowID // -1 marks a released slot
	fBytes     []float64
	fArrival   []float64
	fPath      []topo.Path
	fRemaining []float64 // bytes left as of fLastT (drains lazily after that)
	fLastT     []float64
	fRate      []float64
	fPrevRate  []float64 // rate before the in-flight recompute pass
	fFinish    []float64
	fHeapPos   []int32 // position in the finish heap, -1 when unscheduled
	fActive    []int32 // index in active, -1 when not active
	// fCert is the flow's bottleneck certificate: a link where the flow was
	// last verified saturated-and-maximal (its freeze link from the last fill
	// that sealed it, or the link check (a) certified). -1 when unknown. The
	// ripple background checks use it as an O(1) fast path; see ripple.go.
	fCert    []topo.LinkID
	fVisit   []uint64 // component/ripple membership generation
	fPrep    []uint64 // prepare() generation; guards one-drain-per-pass
	fStarted []bool
	fDone    []bool

	// Link incidence: slot fi's attached links are linkArena[fOff[fi] :
	// fOff[fi]+fNL[fi]], and posArena (same span) holds the flow's position
	// in each link's linkFlows list. Spans are bump-allocated; retired spans
	// are garbage, compacted away when they dominate.
	fOff         []int32
	fNL          []int32
	fCap         []int32
	linkArena    []topo.LinkID
	posArena     []int32
	arenaGarbage int

	// Handles are chunked so they never move; byID maps IDs to slots and
	// freeSlots recycles released ones.
	handles   []*handleChunk
	byID      map[FlowID]int32
	freeSlots []int32

	active  []int32 // started, not done; index-mapped via fActive
	pending arrivalHeap
	fin     finHeap // indexed finish-time heap; positions mirrored in fHeapPos

	linkFlows [][]linkRef // per-link lists of active flows crossing the link
	// linkRate is each link's aggregate flow rate: adjusted eagerly on
	// attach/detach and refreshed exactly (resummed) on every seal, so the
	// ripple pass can judge links outside its scope without touching them.
	linkRate []float64

	// Dirty tracking: links whose flow set or demand changed since the last
	// recompute seed the scoped pass; fullDirty forces a global pass.
	dirtySeeds []topo.LinkID
	fullDirty  bool
	forceFull  bool // ForceFullRecompute: retained reference engine

	// Component decomposition scratch (parallel.go): linkGen/gen mark
	// BFS-visited links; comps spans index into compFlows/compLinks.
	linkGen   []uint64
	gen       uint64
	passGen   uint64
	compFlows []int32
	compLinks []topo.LinkID
	comps     []compSpan

	// Ripple scratch (ripple.go): rIdx maps link ID -> index in the pass's
	// links list, which is also the background fill's slot number; kept all
	// -1 between passes. The v* columns are the verification sweep's per-link
	// results.
	rIdx []int32
	vSum []float64
	vMax []float64
	vBG  []float64
	vSat []bool
	vChg []bool

	// Per-worker fill scratch; scratch[0] serves every serial pass.
	scratch     []*fillScratch
	workers     int
	parMinFlows int
	workerWork  []int64

	utilBuf []float64

	stats EngineStats

	// tel, when non-nil, receives data-plane samples (flow lifecycle,
	// FCT/rate histograms). Every hook site is a single atomic load plus
	// nil check when telemetry is off, keeping the simulator
	// benchmark-clean. The pointer is atomic because SetTelemetry may race
	// with a simulation loop on another goroutine (e.g. debug wiring
	// installing telemetry while sweep shards run); everything else on
	// Simulator remains single-goroutine-owned, while one Telemetry value
	// may be shared by many concurrent simulators (its counters and
	// histograms are atomic, its per-link gauge cache mutex-guarded).
	tel atomic.Pointer[Telemetry]

	// OnComplete, if set, is invoked when a flow finishes, with the
	// simulator already advanced to the finish time.
	OnComplete func(*Flow)
}

// defaultParMinFlows gates the worker pool: below this many flows in a pass
// the goroutine handoff costs more than the fills.
const defaultParMinFlows = 2048

// New creates a simulator over t. Link capacities are taken from the
// topology (bytes per second). The simulator samples into the process-wide
// default telemetry if one is installed (SetDefaultTelemetry); override
// per-simulator with SetTelemetry.
func New(t *topo.Topology) *Simulator {
	nl := t.NumLinks()
	caps := make([]float64, nl)
	for i, l := range t.Links {
		caps[i] = l.Capacity
	}
	s := &Simulator{
		topo:        t,
		caps:        caps,
		byID:        make(map[FlowID]int32),
		linkFlows:   make([][]linkRef, nl),
		linkRate:    make([]float64, nl),
		linkGen:     make([]uint64, nl),
		rIdx:        make([]int32, nl),
		workers:     runtime.GOMAXPROCS(0),
		parMinFlows: defaultParMinFlows,
	}
	for i := range s.rIdx {
		s.rIdx[i] = -1
	}
	s.tel.Store(defaultTel.Load())
	return s
}

// SetWorkers bounds the worker pool used for parallel component fills
// (default runtime.GOMAXPROCS(0); n < 1 clamps to 1). Results are
// bit-identical for any worker count: every engine decision is made before
// work is distributed, components are filled independently with per-worker
// scratch, and sealing runs serially in deterministic component order.
func (s *Simulator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the current worker-pool bound.
func (s *Simulator) Workers() int { return s.workers }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// ActiveCount returns the number of started, unfinished flows.
func (s *Simulator) ActiveCount() int { return len(s.active) }

// PendingCount returns the number of flows that have not arrived yet.
func (s *Simulator) PendingCount() int { return s.pending.Len() }

// Flow returns the flow's handle, or nil if unknown.
func (s *Simulator) Flow(id FlowID) *Flow {
	fi, ok := s.byID[id]
	if !ok {
		return nil
	}
	return s.handle(fi)
}

// Stats returns a snapshot of the engine's internal work counters.
func (s *Simulator) Stats() EngineStats { return s.stats }

// ForceFullRecompute disables scoped recomputation: every dirty event
// triggers a global progressive-filling pass over the whole active set,
// exactly the seed algorithm's behaviour. This is the retained reference
// engine the differential property tests and the storm benchmark compare
// against.
func (s *Simulator) ForceFullRecompute(on bool) { s.forceFull = on }

func (s *Simulator) handle(fi int32) *Flow {
	return &s.handles[fi>>handleShift][fi&handleMask]
}

// newSlot returns a free flow slot, growing every column (and the handle
// slab) in lockstep when the free list is empty.
func (s *Simulator) newSlot() int32 {
	if n := len(s.freeSlots); n > 0 {
		fi := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return fi
	}
	fi := int32(len(s.fID))
	s.fID = append(s.fID, 0)
	s.fBytes = append(s.fBytes, 0)
	s.fArrival = append(s.fArrival, 0)
	s.fPath = append(s.fPath, topo.Path{})
	s.fRemaining = append(s.fRemaining, 0)
	s.fLastT = append(s.fLastT, 0)
	s.fRate = append(s.fRate, 0)
	s.fPrevRate = append(s.fPrevRate, 0)
	s.fFinish = append(s.fFinish, 0)
	s.fHeapPos = append(s.fHeapPos, -1)
	s.fCert = append(s.fCert, -1)
	s.fActive = append(s.fActive, -1)
	s.fVisit = append(s.fVisit, 0)
	s.fPrep = append(s.fPrep, 0)
	s.fStarted = append(s.fStarted, false)
	s.fDone = append(s.fDone, false)
	s.fOff = append(s.fOff, -1)
	s.fNL = append(s.fNL, 0)
	s.fCap = append(s.fCap, 0)
	if int(fi)>>handleShift == len(s.handles) {
		s.handles = append(s.handles, new(handleChunk))
	}
	return fi
}

// AddFlow schedules a flow. Arrival must not be in the simulator's past.
// Bytes must be positive. A zero-length path stalls the flow from the start.
func (s *Simulator) AddFlow(id FlowID, bytes, arrival float64, path topo.Path) error {
	if _, dup := s.byID[id]; dup {
		return fmt.Errorf("fluid: duplicate flow %d", id)
	}
	if bytes <= 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		return fmt.Errorf("fluid: flow %d: bytes %v must be positive and finite", id, bytes)
	}
	if arrival < s.now {
		return fmt.Errorf("fluid: flow %d arrives at %v, before now (%v)", id, arrival, s.now)
	}
	fi := s.newSlot()
	s.fID[fi] = id
	s.fBytes[fi] = bytes
	s.fArrival[fi] = arrival
	s.fPath[fi] = path
	s.fRemaining[fi] = bytes
	s.fLastT[fi] = 0
	s.fRate[fi] = 0
	s.fPrevRate[fi] = 0
	s.fFinish[fi] = 0
	s.fActive[fi] = -1
	s.fStarted[fi] = false
	s.fDone[fi] = false
	s.fNL[fi] = 0
	s.fHeapPos[fi] = -1 // already -1 for recycled slots (completion pops)
	s.fCert[fi] = -1
	// fVisit and fPrep deliberately survive slot recycling: the generations
	// only grow, so a recycled slot can never alias a stale membership mark.
	h := s.handle(fi)
	h.id, h.fi, h.sim = id, fi, s
	s.byID[id] = fi
	s.pending.push(arrEvent{at: arrival, id: id, fi: fi})
	return nil
}

// ReleaseFlow forgets a completed flow: the ID becomes reusable and the
// state slot is recycled by a later AddFlow. Long-running workloads (storms
// replaying millions of flows) call this from OnComplete so flow state is
// bounded by the number of concurrent flows instead of growing forever.
// Only completed flows can be released; handles to the flow are invalidated.
func (s *Simulator) ReleaseFlow(id FlowID) error {
	fi, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("fluid: ReleaseFlow: unknown flow %d", id)
	}
	if !s.fDone[fi] {
		return fmt.Errorf("fluid: ReleaseFlow: flow %d has not completed", id)
	}
	delete(s.byID, id)
	if s.fCap[fi] > 0 {
		s.arenaGarbage += int(s.fCap[fi])
		s.fOff[fi], s.fCap[fi] = -1, 0
	}
	s.fID[fi] = -1 // completion already removed the slot's finish event
	s.fPath[fi] = topo.Path{}
	s.freeSlots = append(s.freeSlots, fi)
	return nil
}

// SetPath reroutes (or stalls, with an empty path) an active or pending
// flow at the current time. Completed flows are rejected.
func (s *Simulator) SetPath(id FlowID, path topo.Path) error {
	fi, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("fluid: SetPath: unknown flow %d", id)
	}
	if s.fDone[fi] {
		return fmt.Errorf("fluid: SetPath: flow %d already completed", id)
	}
	if tel := s.tel.Load(); tel != nil {
		if len(path.Links) == 0 {
			tel.Stalls.Inc()
		} else {
			tel.Reroutes.Inc()
		}
	}
	// The certificate names a link on the old path; it can't survive a
	// route change.
	s.fCert[fi] = -1
	if !s.fStarted[fi] {
		// Pending flow: just swap the path; rates don't depend on it yet.
		s.fPath[fi] = path
		return nil
	}
	// Materialize bytes at the old rate before the route (and hence the
	// rate) changes, then perturb both the old and new components. The
	// finish event is NOT touched here: if the recompute lands on the same
	// rate, the existing event is still exact. Only a rate change moves it —
	// in seal, or right below for a stall (the one rate change that happens
	// outside a filling pass).
	s.drain(fi)
	s.detachLinks(fi)
	s.fPath[fi] = path
	s.attachLinks(fi)
	if len(path.Links) == 0 && s.fRate[fi] != 0 {
		s.fRate[fi] = 0 // stalled immediately; no finish event until rerouted
		s.finRemove(fi)
	}
	return nil
}

// drain materializes the flow's remaining bytes up to the current time at
// its current rate. Must be called before any change to its rate.
func (s *Simulator) drain(fi int32) {
	if r := s.fRate[fi]; r > 0 && s.now > s.fLastT[fi] {
		rem := s.fRemaining[fi] - r*(s.now-s.fLastT[fi])
		if rem < 0 {
			rem = 0
		}
		s.fRemaining[fi] = rem
	}
	s.fLastT[fi] = s.now
}

// prepare drains the flow and snapshots its pre-pass rate, exactly once per
// recompute pass: the fPrep generation guards re-entry, so a ripple pass
// that bails into the component fallback cannot clobber the true pre-pass
// rate with abandoned fill state.
func (s *Simulator) prepare(fi int32) {
	if s.fPrep[fi] == s.passGen {
		return
	}
	s.fPrep[fi] = s.passGen
	s.drain(fi)
	s.fPrevRate[fi] = s.fRate[fi]
}

// attachLinks adds the flow to the per-link flow lists of its current path,
// adds its rate into linkRate, and marks those links dirty.
func (s *Simulator) attachLinks(fi int32) {
	links := s.fPath[fi].Links
	n := int32(len(links))
	s.fNL[fi] = n
	if n == 0 {
		return
	}
	if s.fCap[fi] < n {
		s.growSpan(fi, n)
	}
	off := s.fOff[fi]
	rate := s.fRate[fi]
	for j, l := range links {
		s.linkArena[off+int32(j)] = l
		s.posArena[off+int32(j)] = int32(len(s.linkFlows[l]))
		s.linkFlows[l] = append(s.linkFlows[l], linkRef{fi: fi, slot: int32(j)})
		if rate != 0 {
			s.linkRate[l] += rate
		}
		s.markDirty(l)
	}
}

// growSpan gives the slot a fresh incidence span of n entries at the arena
// tail, retiring any previous span as garbage and compacting the arena when
// garbage dominates it.
func (s *Simulator) growSpan(fi, n int32) {
	if old := s.fCap[fi]; old > 0 {
		s.arenaGarbage += int(old)
		s.fOff[fi], s.fCap[fi] = -1, 0
	}
	if s.arenaGarbage > len(s.linkArena)/2 && len(s.linkArena) > 4096 {
		s.compactArena()
	}
	s.fOff[fi] = int32(len(s.linkArena))
	s.fCap[fi] = n
	for i := int32(0); i < n; i++ {
		s.linkArena = append(s.linkArena, 0)
		s.posArena = append(s.posArena, 0)
	}
}

// compactArena rewrites the incidence arenas keeping only each slot's live
// prefix (attached flows keep their fNL entries; detached and released
// spans drop). posArena values are positions in linkFlows lists, unaffected
// by the move.
func (s *Simulator) compactArena() {
	live := len(s.linkArena) - s.arenaGarbage
	if live < 0 {
		live = 0
	}
	nla := make([]topo.LinkID, 0, live)
	npa := make([]int32, 0, live)
	for fi := range s.fOff {
		keep := s.fNL[fi]
		if keep > s.fCap[fi] {
			keep = s.fCap[fi]
		}
		if keep <= 0 {
			s.fOff[fi], s.fCap[fi] = -1, 0
			continue
		}
		off := s.fOff[fi]
		s.fOff[fi] = int32(len(nla))
		s.fCap[fi] = keep
		nla = append(nla, s.linkArena[off:off+keep]...)
		npa = append(npa, s.posArena[off:off+keep]...)
	}
	s.linkArena, s.posArena = nla, npa
	s.arenaGarbage = 0
}

// detachLinks removes the flow from the per-link flow lists of its current
// path (swap-remove, repairing the moved entry's back-position), subtracts
// its rate from linkRate, and marks those links dirty.
func (s *Simulator) detachLinks(fi int32) {
	off := s.fOff[fi]
	n := s.fNL[fi]
	rate := s.fRate[fi]
	for j := int32(0); j < n; j++ {
		l := s.linkArena[off+j]
		list := s.linkFlows[l]
		i := s.posArena[off+j]
		last := int32(len(list) - 1)
		moved := list[last]
		list[i] = moved
		s.posArena[s.fOff[moved.fi]+moved.slot] = i
		s.linkFlows[l] = list[:last]
		if last == 0 {
			s.linkRate[l] = 0 // emptied: exact zero, no float residue
		} else if rate != 0 {
			s.linkRate[l] -= rate
		}
		s.markDirty(l)
	}
	s.fNL[fi] = 0
}

// maxDirtySeeds bounds the dirty-link list; past it the next recompute is
// global anyway, so the seeds stop being worth tracking individually.
const maxDirtySeeds = 4096

func (s *Simulator) markDirty(l topo.LinkID) {
	if s.fullDirty {
		return
	}
	if len(s.dirtySeeds) >= maxDirtySeeds {
		s.fullDirty = true
		s.dirtySeeds = s.dirtySeeds[:0]
		return
	}
	s.dirtySeeds = append(s.dirtySeeds, l)
}

// Run advances the simulation until `until` (inclusive), processing every
// arrival and completion in time order. It may be called repeatedly;
// callers inject failures by mutating paths between calls.
func (s *Simulator) Run(until float64) error {
	if until < s.now {
		return fmt.Errorf("fluid: Run(%v) is before now (%v)", until, s.now)
	}
	for {
		s.recompute()
		tArr := math.Inf(1)
		if s.pending.Len() > 0 {
			tArr = s.pending[0].at
		}
		tFin := s.nextFinishTime()
		t := math.Min(tArr, tFin)
		if t > until {
			s.now = until
			return nil
		}
		s.now = t
		if tArr <= tFin {
			s.admitArrivals(tArr)
		} else {
			s.completeDue()
		}
	}
}

// RunToCompletion advances until every flow has arrived and finished, or
// returns an error if progress is impossible (stalled flows with nothing
// else happening).
func (s *Simulator) RunToCompletion() error {
	for s.pending.Len() > 0 || len(s.active) > 0 {
		s.recompute()
		tArr := math.Inf(1)
		if s.pending.Len() > 0 {
			tArr = s.pending[0].at
		}
		tFin := s.nextFinishTime()
		if math.IsInf(tArr, 1) && math.IsInf(tFin, 1) {
			return fmt.Errorf("fluid: %d stalled flows cannot make progress", len(s.active))
		}
		if tArr <= tFin {
			s.now = tArr
			s.admitArrivals(tArr)
		} else {
			s.now = tFin
			s.completeDue()
		}
	}
	return nil
}

// admitArrivals starts every pending flow arriving exactly at t, so a batch
// of simultaneous arrivals costs one rate recomputation instead of one each.
func (s *Simulator) admitArrivals(t float64) {
	admitted := 0
	for s.pending.Len() > 0 && s.pending[0].at == t {
		e := s.pending.pop()
		fi := e.fi
		s.fStarted[fi] = true
		s.fLastT[fi] = t
		s.fActive[fi] = int32(len(s.active))
		s.active = append(s.active, fi)
		s.attachLinks(fi)
		admitted++
	}
	if tel := s.tel.Load(); tel != nil {
		tel.FlowsStarted.Add(int64(admitted))
		tel.ActiveFlows.Set(int64(len(s.active)))
		tel.PendingFlows.Set(int64(s.pending.Len()))
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
// recomputation instead of one each. The heap orders ties by flow ID, which
// keeps completion order deterministic and ID-sorted like the seed's scan.
func (s *Simulator) completeDue() {
	tol := relEps * (math.Abs(s.now) + 1)
	for s.fin.Len() > 0 {
		e := s.fin[0]
		if e.t > s.now+tol {
			return
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
	s.fDone[fi] = true
	s.fFinish[fi] = s.now
	rate := s.fRate[fi]
	s.detachLinks(fi) // subtracts the still-current rate from linkRate
	s.fRate[fi] = 0
	s.fRemaining[fi] = 0
	s.fLastT[fi] = s.now
	// Swap-remove from the active set; the index column keeps this O(1)
	// regardless of cohort size.
	i := s.fActive[fi]
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[i] = moved
	s.fActive[moved] = i
	s.active = s.active[:last]
	s.fActive[fi] = -1
	if tel := s.tel.Load(); tel != nil {
		tel.FlowsCompleted.Inc()
		tel.ActiveFlows.Set(int64(len(s.active)))
		tel.FCT.Record(int64((s.now - s.fArrival[fi]) * 1e6)) // seconds → µs
		tel.FlowRate.Record(int64(rate*1e3 + 0.5))            // bytes/s → milli-bytes/s
	}
	if s.OnComplete != nil {
		s.OnComplete(s.handle(fi))
	}
}

// Utilization returns each link's current aggregate flow rate divided by its
// capacity — a snapshot of fabric load for experiments and debugging. Rates
// are refreshed if a topology or flow change is pending. The slice is newly
// allocated; hot callers should use UtilizationInto.
func (s *Simulator) Utilization() []float64 { return s.UtilizationInto(nil) }

// UtilizationInto is Utilization filling a caller-reusable buffer: buf is
// resized (reallocating only when too small) and returned.
func (s *Simulator) UtilizationInto(buf []float64) []float64 {
	s.recompute()
	if cap(buf) < len(s.caps) {
		buf = make([]float64, len(s.caps))
	}
	buf = buf[:len(s.caps)]
	for i := range buf {
		buf[i] = 0
	}
	for _, fi := range s.active {
		off, n := s.fOff[fi], s.fNL[fi]
		r := s.fRate[fi]
		for j := int32(0); j < n; j++ {
			buf[s.linkArena[off+j]] += r
		}
	}
	for i := range buf {
		if s.caps[i] > 0 {
			buf[i] /= s.caps[i]
		}
	}
	return buf
}

// recompute refreshes rates if any link is dirty. The scoped pass — ripple
// with component-decomposition fallback — recomputes only flows that can be
// affected; by construction no flow outside the recomputed set shares an
// unverified link with one inside, and max-min allocations decompose exactly
// over link-sharing components, so the scoped result equals the global one.
func (s *Simulator) recompute() {
	if !s.fullDirty && len(s.dirtySeeds) == 0 {
		return
	}
	// Tag the recomputation for the continuous profiler. Gated on Active
	// so the steady state stays allocation-free: pprof label sets allocate,
	// and this is the storm hot path.
	if prof.Active() {
		prof.Do(prof.PhaseStormRecompute, s.recomputeDirty)
		return
	}
	s.recomputeDirty()
}

// recomputeDirty dispatches the dirty event to an engine pass:
//
//   - forceFull: one progressive fill over the whole active set (the
//     reference engine, seed semantics).
//   - fullDirty (seed list overflowed): exact decomposition into
//     link-sharing components, filled serially or on the worker pool.
//   - otherwise: the ripple pass (fill only flows on dirty links, prove
//     optimality locally), falling back to seeded component decomposition
//     when the proof doesn't close.
//
// Every dispatch decision depends only on simulator state, never on the
// worker count, which is what keeps parallel runs bit-identical.
func (s *Simulator) recomputeDirty() {
	s.stats.Recomputes++
	s.passGen++
	tel := s.tel.Load()
	var before EngineStats
	if tel != nil {
		tel.RateRecomputes.Inc()
		before = s.stats
	}
	switch {
	case s.forceFull:
		s.stats.FullRecomputes++
		if tel != nil {
			tel.FullRecomputes.Inc()
		}
		s.fillUnion(tel)
	case s.fullDirty:
		s.stats.FullRecomputes++
		if tel != nil {
			tel.FullRecomputes.Inc()
		}
		s.decomposeAll()
		s.fillComponents(tel)
	default:
		// Every scoped pass is one or the other, so Recomputes =
		// RipplePasses + RippleFallbacks + FullRecomputes.
		if s.ripple(tel) {
			s.stats.RipplePasses++
		} else {
			s.stats.RippleFallbacks++
			s.decomposeFromSeeds()
			s.fillComponents(tel)
		}
	}
	s.fullDirty = false
	s.dirtySeeds = s.dirtySeeds[:0]
	if tel != nil {
		tel.addEngine(before, s.stats)
	}
}

// fillUnion is the reference pass: prepare and fill the whole active set as
// one union, exactly the seed algorithm's behaviour.
func (s *Simulator) fillUnion(tel *Telemetry) {
	for _, fi := range s.active {
		s.prepare(fi)
	}
	sc := s.scratchFor(0)
	work, _ := s.fillRates(s.active, sc)
	s.sealFlows(s.active)
	s.sealLinks(sc.engaged)
	s.finishPass(work, tel)
}

// sealFlows re-keys the finish event of every flow whose rate actually
// changed in the pass; bit-identical rates keep their exact heap entries
// untouched. Always serial and in deterministic flow order (the indexed heap
// makes the result order-independent anyway: each flow's single entry ends
// at the same key).
func (s *Simulator) sealFlows(flows []int32) {
	fRate, fPrevRate := s.fRate, s.fPrevRate
	fLastT, fRemaining := s.fLastT, s.fRemaining
	for _, fi := range flows {
		r := fRate[fi]
		if r < 0 {
			r = 0 // defensive: unfrozen sentinel from an aborted fill round
			fRate[fi] = 0
		}
		if r != fPrevRate[fi] {
			if r > 0 {
				s.finSchedule(fi, fLastT[fi]+fRemaining[fi]/r)
			} else {
				s.finRemove(fi)
			}
		}
	}
}

// sealLinks refreshes linkRate with the exact sum of attached rates for
// every link touched by the pass, so eager attach/detach adjustments can't
// accumulate float drift between passes.
func (s *Simulator) sealLinks(links []topo.LinkID) {
	for _, l := range links {
		sum := 0.0
		for _, ref := range s.linkFlows[l] {
			sum += s.fRate[ref.fi]
		}
		s.linkRate[l] = sum
	}
}

// finishPass books the pass work into stats and telemetry.
func (s *Simulator) finishPass(work int64, tel *Telemetry) {
	s.stats.RecomputeWork += work
	for _, sc := range s.scratch {
		s.stats.FillRounds += sc.rounds
		s.stats.LinkScans += sc.scans
		s.stats.ScanRebuilds += sc.rebuilds
		sc.rounds, sc.scans, sc.rebuilds = 0, 0, 0
	}
	if tel != nil {
		tel.RateRecomputeWork.Add(work)
		tel.RecomputeWork.Record(work)
	}
}

// fillScratch is one worker's progressive-filling state; each worker owns
// one, so parallel component fills never share mutable state. The per-slot
// arrays are indexed by the fill's slot numbers. In closed mode linkIdx maps a
// link to its slot (sized to the topology, all -1 between fills) and engaged
// maps back. In background mode the slots are the ripple pass's links list
// (link -> slot is s.rIdx), and members/prevSum outlive a fill, so a refill
// engages only the flows an expansion appended.
type fillScratch struct {
	linkIdx []int32
	engaged []topo.LinkID // closed mode: valid until the scratch's next fill
	members []int32       // flows of the set on the slot's link
	prevSum []float64     // background mode: their pre-pass rates, summed in engagement order
	avail   []float64
	count   []int32   // members still unfrozen
	satLv   []float64 // avail/count, the level the link saturates at; +Inf once parked
	// search state: cand holds, in slot order, every slot whose level was
	// within thr at the last full scan and has not been seen above it since.
	cand    []int32
	thr     float64
	satList []int32
	// rounds, scans and rebuilds accumulate the fills' round, slot-visit and
	// full-scan counts until finishPass folds them into the simulator's
	// stats; fills on the worker pool may not touch shared counters.
	rounds, scans, rebuilds int64
}

// scratchFor returns worker w's fill scratch, allocating through w on first
// use. scratch[0] serves every serial pass.
func (s *Simulator) scratchFor(w int) *fillScratch {
	for len(s.scratch) <= w {
		sc := &fillScratch{linkIdx: make([]int32, len(s.caps))}
		for i := range sc.linkIdx {
			sc.linkIdx[i] = -1
		}
		s.scratch = append(s.scratch, sc)
	}
	return s.scratch[w]
}

// size gives the per-fill slot arrays n entries. They are rewritten from
// scratch by every fill, so growth never copies.
func (sc *fillScratch) size(n int) {
	if cap(sc.avail) < n {
		sc.avail, sc.count, sc.satLv = make([]float64, 2*n), make([]int32, 2*n), make([]float64, 2*n)
	}
	sc.avail, sc.count, sc.satLv = sc.avail[:n], sc.count[:n], sc.satLv[:n]
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

// ensureVCap grows the per-link verification arrays (indexed by rIdx) to at
// least n entries. Entries are rewritten from scratch every fill round, so
// growth never copies.
func (s *Simulator) ensureVCap(n int) {
	if len(s.vSum) >= n {
		return
	}
	n *= 2
	s.vSum = make([]float64, n)
	s.vMax = make([]float64, n)
	s.vBG = make([]float64, n)
	s.vSat = make([]bool, n)
	s.vChg = make([]bool, n)
}

// engage adds flows to a fill's slot tables: every link a flow crosses counts
// it as a member, a link seen for the first time takes the next slot (idx and
// links record it), and in background mode the link's prevSum accumulates the
// flow's pre-pass rate. Routed flows are marked unfrozen with rate -1 — a
// member can legitimately freeze at level 0 (background consuming a full
// link), so zero cannot mark frozenness — and stalled flows get rate zero. It
// returns the grown links list and how many flows and incidences it engaged.
func (s *Simulator) engage(flows []int32, sc *fillScratch, idx []int32, links []topo.LinkID, withBG bool) ([]topo.LinkID, int, int) {
	// Hoist the flow columns the hot loops touch: going through s.field in a
	// loop reloads the slice header (and re-checks bounds against it) every
	// iteration, which is measurable at millions of incidences per storm.
	fOff, fNL, arena := s.fOff, s.fNL, s.linkArena
	fRate, fPrevRate := s.fRate, s.fPrevRate
	members, prevSum := sc.members, sc.prevSum
	routed, incid := 0, 0
	for _, fi := range flows {
		off, n := fOff[fi], fNL[fi]
		if n == 0 {
			fRate[fi] = 0
			continue
		}
		fRate[fi] = -1
		routed++
		incid += int(n)
		pr := fPrevRate[fi]
		for _, l := range arena[off : off+n] {
			li := idx[l]
			if li < 0 {
				li = int32(len(links))
				idx[l] = li
				links = append(links, l)
				members = append(members, 0)
				prevSum = append(prevSum, 0)
			}
			members[li]++
			if withBG {
				prevSum[li] += pr
			}
		}
	}
	sc.members, sc.prevSum = members, prevSum
	return links, routed, incid
}

// fillRates runs progressive filling (water-filling) over flowSet, which must
// be closed under link sharing — a component, or the whole active set — so
// every engaged link's full capacity belongs to the set. All unfrozen flows'
// rates rise together; when a link saturates, its flows freeze at the current
// level. The engaged links stay in sc.engaged for the caller's seal. The
// caller seals afterwards — rates are final on return, but finish events and
// linkRate are not yet updated — which is what makes concurrent fills of
// disjoint components safe: the fill writes only its flows' rate and
// certificate entries and its own scratch. The boolean result is false only on
// waterFill's defensive break.
func (s *Simulator) fillRates(flowSet []int32, sc *fillScratch) (int64, bool) {
	sc.members, sc.prevSum = sc.members[:0], sc.prevSum[:0]
	links, unfrozen, incid := s.engage(flowSet, sc, sc.linkIdx, sc.engaged[:0], false)
	sc.engaged = links
	sc.size(len(links))
	for i, l := range links {
		sc.avail[i], sc.count[i] = s.caps[l], sc.members[i]
		sc.satLv[i] = s.caps[l] / float64(sc.members[i])
	}
	work, ok := s.waterFill(sc, sc.linkIdx, links, unfrozen, false)
	for _, l := range links {
		sc.linkIdx[l] = -1
	}
	if !ok {
		for _, fi := range flowSet {
			if s.fRate[fi] < 0 {
				s.fRate[fi] = 0
			}
		}
	}
	return int64(incid) + work, ok
}

// fillBackground is the ripple pass's fill: flows outside the set stay frozen
// at their current rates and each link offers only its residual capacity.
// flows[:from] are the members the pass's previous fill already engaged, so
// set-up costs O(slots + new incidences): only flows[from:] are engaged, and
// every slot's residual is re-derived without a list walk. A link whose
// member count equals its list length carries no background — the common case
// for the rack-local links a scoped pass centres on — and keeps full
// capacity, bit-identical to a closed-mode engagement; the rest subtract the
// maintained linkRate aggregate minus the members' pre-pass rates. The
// verification arrays start here and are finished by waterFill: vSum starts
// at the background sum, and vBG is the no-background (-1) / bgUnknown marker
// the checks resolve lazily. New links are appended to links with s.rIdx
// assigned; the caller owns restoring rIdx.
func (s *Simulator) fillBackground(flows []int32, from int, sc *fillScratch, links []topo.LinkID) ([]topo.LinkID, int64, bool) {
	unfrozen := 0
	for _, fi := range flows[:from] {
		if s.fNL[fi] > 0 {
			s.fRate[fi] = -1
			unfrozen++
		}
	}
	links, routed, incid := s.engage(flows[from:], sc, s.rIdx, links, true)
	n := len(links)
	sc.size(n)
	s.ensureVCap(n)
	vSum, vMax, vBG, vChg := s.vSum, s.vMax, s.vBG, s.vChg
	members, prevSum := sc.members, sc.prevSum
	avail, count, satLv := sc.avail, sc.count, sc.satLv
	for i, l := range links {
		vMax[i], vChg[i] = 0, false
		a, m := s.caps[l], members[i]
		if int(m) == len(s.linkFlows[l]) {
			vSum[i], vBG[i] = 0, -1
		} else {
			bg := s.linkRate[l] - prevSum[i]
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
	work, ok := s.waterFill(sc, s.rIdx, links, unfrozen+routed, true)
	return links, int64(incid+n) + work, ok
}

// waterFill runs the rounds of a fill whose slot arrays are set up: search
// picks the saturating slots, and their links' unfrozen member flows freeze at
// the level — rate set, certificate recorded, every link the flow crosses
// loses one unfrozen count and the frozen allocation, and its saturation level
// is re-derived (a link losing its last unfrozen flow parks at +Inf, which no
// search selects). The walk is the saturating link's own flow list; frozen
// members and, in background mode, non-members (whose rates are never
// negative) are skipped by the same test. Within a round every flow freezes
// at the same level, so the walk order cannot change a rate, a residual or a
// certificate. In background mode the freeze also folds the member into the
// verification arrays: vSum accumulates its rate, vMax tracks the member
// maximum (levels are nondecreasing, so the last write is the max) and vChg
// marks links whose members moved. The result is false only on the defensive
// no-live-links break, which leaves rates at -1 and the verification arrays
// inconsistent; ripple must fall back.
func (s *Simulator) waterFill(sc *fillScratch, idx []int32, links []topo.LinkID, unfrozen int, withBG bool) (int64, bool) {
	avail, count, satLv := sc.avail, sc.count, sc.satLv
	fOff, fNL, arena := s.fOff, s.fNL, s.linkArena
	fRate, fPrevRate, fCert := s.fRate, s.fPrevRate, s.fCert
	vSum, vMax, vChg := s.vSum, s.vMax, s.vChg
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
		for _, li := range sc.satList {
			cert := links[li]
			for _, ref := range s.linkFlows[cert] {
				fi := ref.fi
				if fRate[fi] >= 0 {
					continue // frozen this pass, or background
				}
				fRate[fi] = level
				fCert[fi] = cert
				chg := false
				if withBG {
					pr := fPrevRate[fi]
					chg = math.Abs(level-pr) > rippleTol*(pr+1)
				}
				off, n := fOff[fi], fNL[fi]
				for _, l2 := range arena[off : off+n] {
					li2 := idx[l2]
					c := count[li2] - 1
					count[li2] = c
					a := avail[li2] - level
					avail[li2] = a
					if c > 0 {
						lv := a / float64(c)
						if lv < satLv[li2] && satLv[li2] > cut {
							// Rounding lowered the level of a link that
							// outlives the round (one within the cut is about
							// to park), so the candidate list no longer
							// bounds it: drop the list, search rescans.
							sc.cand = sc.cand[:0]
						}
						satLv[li2] = lv
					} else {
						satLv[li2] = math.Inf(1)
						live--
					}
					if withBG {
						vSum[li2] += level
						vMax[li2] = level
						if chg {
							vChg[li2] = true
						}
					}
				}
				work += int64(n)
				unfrozen--
			}
		}
	}
	return work, true
}

// arrEvent is one scheduled arrival.
type arrEvent struct {
	at float64
	id FlowID
	fi int32
}

// arrivalHeap orders pending arrivals by time, then ID for determinism.
// Hand-rolled (not container/heap) so push/pop stay inlineable and free of
// interface boxing on the hot path.
type arrivalHeap []arrEvent

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}

func (h *arrivalHeap) push(e arrEvent) {
	*h = append(*h, e)
	a := *h
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
