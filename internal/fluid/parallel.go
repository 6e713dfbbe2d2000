package fluid

import (
	"sync"
	"sync/atomic"
)

// Component decomposition and the intra-trial worker pool (DESIGN.md §15).
//
// Max-min allocations decompose exactly over link-sharing components:
// progressive filling inside one component never reads or writes anything
// another component touches (rates of its member flows, residuals of its
// member links). Components are therefore filled independently — serially,
// or on a bounded worker pool — and the results are bit-identical for any
// worker count because:
//
//  1. Which pass runs, and which flows belong to which component, is decided
//     before any worker starts (dispatch never consults the worker count).
//  2. Each fill is a pure function of its component's flow order, link
//     lists, and capacities; workers own private scratch, and member sets
//     are disjoint, so no float operation's order depends on scheduling.
//  3. Sealing (finish-event re-keys, link-rate refresh) runs
//     serially afterwards, in the deterministic BFS component order.
//
// This is the same discipline as internal/sweep's splitmix64 shard merge:
// partition deterministically, compute independently, merge in a fixed
// order.

// compSpan indexes one link-sharing component inside the shared compFlows /
// compLinks backing arrays: flows [f0:f1), links [l0:l1).
type compSpan struct {
	f0, f1, l0, l1 int32
}

// bfsFrom expands s.compFlows/compLinks to the closure of the link-sharing
// relation, consuming the link queue from position q0 (seed links already
// appended and generation-marked). Each discovered flow is prepared
// (drained + pre-pass rate snapshot) on first visit, so the fills can run
// later — possibly on other goroutines — without touching shared state.
func (s *Simulator) bfsFrom(q0 int) {
	for qi := q0; qi < len(s.compLinks); qi++ {
		for _, ref := range s.links[s.compLinks[qi]].flows {
			h := &s.hot[ref.fi]
			if h.visit == s.gen {
				continue
			}
			h.visit = s.gen
			s.prepare(h)
			s.compFlows = append(s.compFlows, ref.fi)
			for _, l2 := range s.linkArena[h.off : h.off+h.nl] {
				if s.linkGen[l2] != s.gen {
					s.linkGen[l2] = s.gen
					s.compLinks = append(s.compLinks, l2)
				}
			}
		}
	}
}

// decomposeFromSeeds builds the link-sharing components reachable from the
// dirty seed links. Seeds landing in an already-built component are skipped
// by the link generation mark, so each component is built exactly once.
func (s *Simulator) decomposeFromSeeds() {
	s.gen++
	s.comps = s.comps[:0]
	s.compFlows = s.compFlows[:0]
	s.compLinks = s.compLinks[:0]
	for _, seed := range s.dirtySeeds {
		if s.linkGen[seed] == s.gen {
			continue
		}
		s.linkGen[seed] = s.gen
		f0, l0 := len(s.compFlows), len(s.compLinks)
		s.compLinks = append(s.compLinks, seed)
		s.bfsFrom(l0)
		if len(s.compFlows) == f0 {
			// A dirty link with no flows left (the last flow on it
			// completed or rerouted away): nothing shares it, nothing to
			// fill, and its rate was already zeroed by the eager detach.
			s.compLinks = s.compLinks[:l0]
			continue
		}
		s.comps = append(s.comps, compSpan{
			f0: int32(f0), f1: int32(len(s.compFlows)),
			l0: int32(l0), l1: int32(len(s.compLinks)),
		})
	}
}

// decomposeAll partitions the entire active set into link-sharing
// components (the fullDirty pass: the seed list overflowed, so every flow
// is suspect). Stalled flows are their own trivial components: their rate
// is already zero and stays there, so they are prepared but not filled.
func (s *Simulator) decomposeAll() {
	s.gen++
	s.comps = s.comps[:0]
	s.compFlows = s.compFlows[:0]
	s.compLinks = s.compLinks[:0]
	for _, fi := range s.active {
		h := &s.hot[fi]
		if h.visit == s.gen {
			continue
		}
		h.visit = s.gen
		s.prepare(h)
		if h.nl == 0 {
			h.rate = 0 // stalled; rate was zeroed when the path emptied
			continue
		}
		f0, l0 := len(s.compFlows), len(s.compLinks)
		s.compFlows = append(s.compFlows, fi)
		for _, l := range s.linkArena[h.off : h.off+h.nl] {
			if s.linkGen[l] != s.gen {
				s.linkGen[l] = s.gen
				s.compLinks = append(s.compLinks, l)
			}
		}
		s.bfsFrom(l0)
		s.comps = append(s.comps, compSpan{
			f0: int32(f0), f1: int32(len(s.compFlows)),
			l0: int32(l0), l1: int32(len(s.compLinks)),
		})
	}
}

// fillComponents fills every decomposed component — on the worker pool when
// the pass is big enough to amortize goroutine handoff — then seals flows
// and links serially in deterministic order.
func (s *Simulator) fillComponents() {
	var work int64
	if s.workers > 1 && len(s.comps) > 1 && len(s.compFlows) >= s.parMinFlows {
		s.stats.ParallelPasses++
		work = s.fillComponentsParallel()
	} else {
		sc := s.scratchFor(0)
		for _, c := range s.comps {
			w, _ := s.fillRates(s.compFlows[c.f0:c.f1], sc)
			work += w
		}
	}
	s.stats.Components += int64(len(s.comps))
	s.sealFlows(s.compFlows)
	s.sealLinks(s.compLinks)
	s.finishPass(work)
}

// fillComponentsParallel distributes component fills over the worker pool
// with an atomic work counter (components vary wildly in size, so static
// striping would leave workers idle). Fills write only their component's
// rate entries and private scratch; see the package comment for why the
// result is bit-identical to the serial order.
func (s *Simulator) fillComponentsParallel() int64 {
	nw := s.workers
	if nw > len(s.comps) {
		nw = len(s.comps)
	}
	for w := 0; w < nw; w++ {
		s.scratchFor(w) // allocate up front; workers must not grow s.scratch
	}
	if cap(s.workerWork) < nw {
		s.workerWork = make([]int64, nw)
	}
	works := s.workerWork[:nw]
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := s.scratch[w]
			var wk int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.comps) {
					break
				}
				c := s.comps[i]
				w, _ := s.fillRates(s.compFlows[c.f0:c.f1], sc)
				wk += w
			}
			works[w] = wk
		}(w)
	}
	wg.Wait()
	var total int64
	for _, wk := range works {
		total += wk
	}
	return total
}
