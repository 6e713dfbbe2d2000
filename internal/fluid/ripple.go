package fluid

import "sharebackup/internal/topo"

// The ripple pass (DESIGN.md §10). It fills only the flows on the dirty
// links, the set S, holding every other flow at its rate, and then proves the
// result is the global max-min allocation by the Bertsekas–Gallager
// condition, checked locally:
//
//	a rate vector is max-min fair iff every flow has a bottleneck link —
//	a saturated link on which its rate is maximal.
//
// Two checks close the proof over S:
//
//   - (a) every member of S has a bottleneck among its own links. All of
//     them are in links(S), so the verification sweep has their exact
//     post-fill sums and maxima. A member beaten everywhere adopts the faster
//     background flows on its saturated links into S.
//   - (b) every background flow on a *changed* link of links(S) keeps a
//     bottleneck somewhere. Its links outside links(S) carry no member, so
//     their flow sets and rates are what they were before the pass, when the
//     allocation was valid: the link's maintained aggregate rate plus a list
//     scan answers there. A link of links(S) whose member rates did not move
//     (vChg) needs no background check.
//
// A failed check grows S and refills. Growth is strict and the rounds and
// |S| are capped, with component decomposition as the always-correct
// fallback, so the loop terminates. Correctness never rests on the checks
// being tight: a spurious failure only costs an expansion round, and the
// differential fuzz suite replays schedules through this path against the
// reference. Members sit at scattered slots, so a pass costs the lines and
// list entries it reads; the checks are ordered to walk few lists
// (certifyMember, lazyBG).
const (
	// rippleMaxRounds bounds fill+verify rounds before falling back to
	// component decomposition; each round strictly grows the member set, so
	// a pass needing many rounds is drifting toward the component anyway.
	rippleMaxRounds = 6
	// rippleTol is the relative tolerance of the optimality verification.
	// Deliberately much looser than satTol: failing a check spuriously only
	// costs an expansion round (performance), while the differential fuzz
	// suite would catch a missed expansion (correctness), so the bias is
	// toward expanding.
	rippleTol = 1e-10
)

// ripple attempts the scoped pass. It returns false — leaving all flow
// rates prepared but unsealed — when the caller should fall back to
// component decomposition; every flow whose rate it dirtied is on or
// adjacent to a dirty link, so the seeded BFS re-covers them. The caller
// counts the outcome (RipplePasses or RippleFallbacks).
func (w *worker) ripple() bool {
	s, p := w.s, w.p
	if p.active == 0 {
		return true
	}
	gen := p.gen
	flows := w.compFlows[:0]
	links := w.compLinks[:0]
	// S starts as every flow on a dirty link. (Departed flows' links are
	// dirty, so the flows left behind — the ones whose rates can rise —
	// are members; arrivals and reroute targets are on dirty links
	// directly.)
	for _, seed := range p.seeds {
		for _, ref := range s.links[seed].flows {
			if h := &s.hot[ref.fi]; h.visit != gen {
				h.visit = gen
				w.prepare(h)
				flows = append(flows, ref.fi)
			}
		}
	}
	if len(flows) == 0 {
		// Dirty links with nothing on them (last flow on a rack finished):
		// no rate can change, and their rates were zeroed by the eager detach.
		w.compFlows, w.compLinks = flows, links
		return true
	}
	if 2*len(flows) > p.active {
		// Not "scoped" in any useful sense; decompose instead. No links
		// were marked yet, so there is nothing to unwind.
		w.compFlows, w.compLinks = flows, links
		return false
	}

	var work int64
	bail := func() bool {
		for _, l := range links {
			s.rIdx[l] = -1
		}
		w.compFlows, w.compLinks = flows, links
		return false
	}

	// The fill's slot tables live as long as the pass: links (with rIdx) is
	// the slot space, and a refill engages only the flows appended since.
	sc := &w.sc
	filled := 0 // members the fills have engaged so far; check (a) judges exactly these
	for round := 0; ; round++ {
		// The fill engages the new members' links (appending new ones to
		// links with rIdx assigned), computes residuals from the links'
		// maintained aggregate rates, and leaves the verification arrays
		// populated: vSum = background sum + member rates, vMax = member
		// maximum, vChg = some member moved, vBG = -1 (no background) or
		// bgUnknown (background present, maximum resolved lazily below).
		var wk int64
		var completed bool
		links, wk, completed = w.fill(flows, filled, links)
		filled = len(flows)
		work += wk
		if !completed {
			return bail() // defensive fill break: arrays are inconsistent
		}
		vSum, vSat := sc.vSum, sc.vSat
		work += 2 * int64(len(links)) // the slots' set-up and this sweep
		for i, l := range links {
			c := s.links[l].cap
			vSat[i] = vSum[i] >= c-rippleTol*(c+1)
		}

		// (a) every member needs a bottleneck link. One beaten everywhere it
		// saturates adopts the background flows outrunning it there. A beater
		// that is already generation-marked was adopted by an earlier member
		// of this same loop; the set has already grown, the refill will
		// re-judge this member, and that is success, not a dead end — hence
		// the growth check.
		expanded := false
		for k := 0; k < filled; k++ {
			h := &s.hot[flows[k]]
			if h.nl == 0 {
				continue // stalled member; rate 0 by construction
			}
			if w.certifyMember(h, gen, &work) {
				continue
			}
			var found bool
			flows, found = w.adoptBeaters(h, flows, gen, &work)
			if !found && len(flows) == filled {
				// No background flow explains the failure and nothing else
				// grew the set this round — a numeric corner this proof
				// can't close; decompose instead.
				return bail()
			}
			expanded = true
		}

		// (b) background flows on changed links must keep a bottleneck.
		// Skipped when (a) already expanded: the refill re-verifies
		// everything anyway. vBG == -1 means the link had no background at
		// fill time, so there is nothing to check.
		if !expanded {
			for i, l := range links {
				if !sc.vChg[i] || sc.vBG[i] == -1 {
					continue
				}
				list := s.links[l].flows
				for _, ref := range list {
					hj := &s.hot[ref.fi]
					if hj.visit == gen || w.bgStillBottlenecked(hj, gen, &work) {
						continue
					}
					hj.visit = gen
					w.prepare(hj)
					flows = append(flows, ref.fi)
					expanded = true
				}
				work += int64(len(list))
			}
		}

		if !expanded {
			break // proof closed: the scoped fill is the global allocation
		}
		p.stats.RippleExpansions++
		if round+1 >= rippleMaxRounds || 2*len(flows) > p.active {
			return bail()
		}
	}

	// Seal: link rates from the verification sums, finish events for changed
	// rates, scratch invariants restored.
	for i, l := range links {
		s.links[l].rate = sc.vSum[i]
		s.rIdx[l] = -1
	}
	w.sealFlows(flows)
	w.compFlows, w.compLinks = flows, links
	w.finishPass(work)
	return true
}

// inScopeBottleneck reports whether links(S) entry i / link l is a bottleneck
// for a flow whose rate, plus tolerance, is rtol: saturated, and neither a
// member (vMax) nor a background flow (vBG, resolved lazily) outruns it.
func (w *worker) inScopeBottleneck(i int32, l topo.LinkID, rtol float64, gen uint64, work *int64) bool {
	sc := &w.sc
	if !sc.vSat[i] || sc.vMax[i] > rtol {
		return false
	}
	b := sc.vBG[i]
	if b == bgUnknown {
		b = w.lazyBG(i, l, gen, work)
	}
	return b <= rtol
}

// certifyMember is check (a) for one routed member of a completed fill: find
// a bottleneck among its links and record it as the certificate, so later
// passes can re-validate this flow as background in O(1). The link the fill
// froze the member at goes first: it saturated at the member's own level, so
// it passes the member-side tests by construction and is the one link whose
// background walk (if it needs one) is likely to settle the question; the
// rest of the path, in order, is the fallback.
func (w *worker) certifyMember(h *flowHot, gen uint64, work *int64) bool {
	s := w.s
	rtol := h.rate + rippleTol*(h.rate+1)
	froze := h.cert
	if w.inScopeBottleneck(s.rIdx[froze], froze, rtol, gen, work) {
		return true
	}
	for _, l := range s.linkArena[h.off : h.off+h.nl] {
		if l != froze && w.inScopeBottleneck(s.rIdx[l], l, rtol, gen, work) {
			h.cert = l
			return true
		}
	}
	return false
}

// adoptBeaters grows the set for a member check (a) could not certify: on
// each of its saturated links it adopts the background flows outrunning it —
// they hold capacity this member deserves. It returns the grown set and
// whether it adopted anything.
func (w *worker) adoptBeaters(h *flowHot, flows []int32, gen uint64, work *int64) ([]int32, bool) {
	s := w.s
	r := h.rate
	found := false
	for _, l := range s.linkArena[h.off : h.off+h.nl] {
		i := s.rIdx[l]
		if !w.sc.vSat[i] {
			continue
		}
		b := w.sc.vBG[i]
		if b == bgUnknown {
			b = w.lazyBG(i, l, gen, work)
		}
		if b <= r {
			continue
		}
		list := s.links[l].flows
		for _, ref := range list {
			hj := &s.hot[ref.fi]
			if hj.visit == gen || hj.rate <= r {
				continue
			}
			hj.visit = gen
			w.prepare(hj)
			flows = append(flows, ref.fi)
			found = true
		}
		*work += int64(len(list))
	}
	return flows, found
}

// lazyBG resolves and caches the fastest background (non-member) rate on
// links(S) entry i / link l. It is the only place the ripple checks walk a
// full per-link flow list, and it runs only when a check is inconclusive
// from the member-side arrays alone. Adoption during the same round can
// shrink the background set, so the cached value reflects the background as
// of the walk — the growth-excused bail in check (a) is what keeps that
// sound.
func (w *worker) lazyBG(i int32, l topo.LinkID, gen uint64, work *int64) float64 {
	s := w.s
	b := -1.0
	list := s.links[l].flows
	for _, ref := range list {
		if h := &s.hot[ref.fi]; h.visit != gen && h.rate > b {
			b = h.rate
		}
	}
	*work += int64(len(list))
	w.sc.vBG[i] = b
	return b
}

// bgStillBottlenecked is check (b) for one background flow on a changed
// link: does it still have a saturated link on which its rate is maximal?
//
// The certificate fast path usually answers in O(1). cert names a link
// where the flow was verified saturated-and-maximal the last time that
// link's allocation was sealed (freeze link or check (a) link), and a
// link's allocation only changes in a pass that seals it — a pass in which
// every flow on it is either a member (re-certified at freeze/(a)) or a
// checked background flow (re-certified right here). So between passes the
// certificate stays truthful on its own:
//
//   - certificate inside links(S): the verification arrays re-validate it
//     against this pass's fresh sums/maxima (the one case where it can have
//     just changed).
//   - certificate outside links(S): no member touches it, so its flow set
//     and every rate on it are exactly what they were when the certificate
//     was written; the aggregate-rate saturation gate is a defensive
//     re-check and no list walk is needed.
//
// A failed or missing certificate falls back to the full link scan, which
// re-certifies on success. A spurious fast-path failure only costs that
// walk; the fuzz suite (which replays schedules against the reference
// engine) is the backstop for the invariant itself.
func (w *worker) bgStillBottlenecked(h *flowHot, gen uint64, work *int64) bool {
	s := w.s
	r := h.rate
	rtol := r + rippleTol*(r+1)
	if lc := h.cert; lc >= 0 {
		if i := s.rIdx[lc]; i >= 0 {
			if w.inScopeBottleneck(i, lc, rtol, gen, work) {
				return true
			}
		} else if ls := &s.links[lc]; ls.rate >= ls.cap-rippleTol*(ls.cap+1) {
			return true
		}
	}

	// Full scan: links inside links(S) use the verification arrays (with the
	// background maximum resolved lazily — it includes this flow itself, so
	// a background-maximal flow passes); links outside carry no members, so
	// their state is exactly pre-pass — the link's maintained aggregate rate
	// gates a list scan.
	for _, l := range s.linkArena[h.off : h.off+h.nl] {
		if i := s.rIdx[l]; i >= 0 {
			if w.inScopeBottleneck(i, l, rtol, gen, work) {
				h.cert = l
				return true
			}
			continue
		}
		ls := &s.links[l]
		if ls.rate < ls.cap-rippleTol*(ls.cap+1) {
			continue
		}
		mx := 0.0
		for _, ref := range ls.flows {
			if rr := s.hot[ref.fi].rate; rr > mx {
				mx = rr
			}
		}
		*work += int64(len(ls.flows))
		if mx <= rtol {
			h.cert = l
			return true
		}
	}
	return false
}
