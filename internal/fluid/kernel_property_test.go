package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"sharebackup/internal/topo"
)

// The properties the fill's bookkeeping rests on (DESIGN.md §10): the
// thresholded search equals the exhaustive scan, the freeze walk's order is
// immaterial, and carrying set-up across a ripple pass's refills equals
// starting over.

// randomTable draws a progressive-filling instance. Kinds 0-2 are random with
// uniform, log-uniform (1e-9..1e9) and few-valued capacities; the rest are
// adversarial for the threshold: capacities on exact powers of candFactor (a
// minimum's tie cut lands on the threshold), descending in slot order (every
// slot a new minimum, so a rebuild collects them all), links with nothing to
// give (level zero), and capacities so small that eps dominates the tie cut
// and it exceeds candFactor times the minimum.
func randomTable(r *rand.Rand, kind int) fillCase {
	nl := 1 + r.Intn(40)
	c := fillCase{name: fmt.Sprintf("kind %d", kind), caps: make([]float64, nl)}
	for l := range c.caps {
		switch kind {
		case 0:
			c.caps[l] = 0.5 + 4*r.Float64()
		case 1:
			c.caps[l] = math.Pow(10, -9+18*r.Float64())
		case 2:
			c.caps[l] = float64(1 + r.Intn(3))
		case 3:
			c.caps[l] = math.Pow(candFactor, float64(r.Intn(6)))
		case 4:
			c.caps[l] = float64(2*nl-l) * (1 + float64(r.Intn(2))*1e-13)
		case 5:
			c.caps[l] = 1e-13 * (1 + 20*r.Float64())
		default:
			c.caps[l] = 1 + r.Float64()
			if r.Intn(4) == 0 {
				if c.rawCaps == nil {
					c.rawCaps = map[int]float64{}
				}
				c.rawCaps[l] = 0
			}
		}
	}
	for f, nf := 0, 1+r.Intn(60); f < nf; f++ {
		var path []int
		for len(path) < 1+r.Intn(4) {
			if l := r.Intn(nl); !slices.Contains(path, l) {
				path = append(path, l)
			}
		}
		c.flows = append(c.flows, path)
	}
	return c
}

const tableKinds = 7

// TestSearchMatchesExhaustiveScan drives fillScratch.search through whole
// fills, slot = link index, with the reference's own freeze between rounds,
// and requires every round's level, tie cut and selected slots to equal what
// an exhaustive scan of the levels selects. Every few rounds it also breaks
// the monotonicity the search relies on — it lowers the level of a slot the
// candidate list may have dropped — under the documented contract (the caller
// empties the list), which must keep the search exact.
func TestSearchMatchesExhaustiveScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rebuilds, rounds := int64(0), int64(0)
	for trial := 0; trial < 3000; trial++ {
		c := randomTable(r, trial%tableKinds)
		caps := append([]float64(nil), c.caps...)
		for l, cp := range c.rawCaps {
			caps[l] = cp
		}
		n := len(caps)
		avail := caps
		count := make([]int32, n)
		frozen := make([]bool, len(c.flows))
		for _, f := range c.flows {
			for _, l := range f {
				count[l]++
			}
		}
		sc := &fillScratch{}
		sc.size(n)
		for l := range avail {
			sc.satLv[l] = math.Inf(1) // a link no flow crosses is never engaged
			if count[l] > 0 {
				sc.satLv[l] = avail[l] / float64(count[l])
			}
		}
		level := 0.0
		for unfrozen := len(c.flows); unfrozen > 0; {
			minL := math.Inf(1)
			for _, lv := range sc.satLv {
				minL = math.Min(minL, lv)
			}
			wantLo := math.Max(minL, level)
			wantCut := wantLo + (satTol*wantLo + eps)
			var want []int32
			for l, lv := range sc.satLv {
				if lv <= wantCut {
					want = append(want, int32(l))
				}
			}
			lo, cut, ok := sc.search(level)
			if !ok || lo != wantLo || cut != wantCut || !slices.Equal(sc.satList, want) {
				t.Fatalf("trial %d (%s) round %d: search = level %v cut %v slots %v ok %v, exhaustive scan = level %v cut %v slots %v\nlevels %v",
					trial, c.name, sc.rounds, lo, cut, sc.satList, ok, wantLo, wantCut, want, sc.satLv)
			}
			sc.rounds++
			level = lo
			for _, l := range want {
				for i, f := range c.flows {
					if frozen[i] || !slices.Contains(f, int(l)) {
						continue
					}
					frozen[i] = true
					unfrozen--
					for _, l2 := range f {
						count[l2]--
						avail[l2] -= level
						lv := math.Inf(1)
						if count[l2] > 0 {
							lv = avail[l2] / float64(count[l2])
						}
						if lv < sc.satLv[l2] && sc.satLv[l2] > cut {
							sc.cand = sc.cand[:0] // the kernel's rounding-dip rule
						}
						sc.satLv[l2] = lv
					}
				}
			}
			if l := r.Intn(n); r.Intn(4) == 0 && count[l] > 0 {
				avail[l] = level * float64(count[l]) * (1 + r.Float64())
				sc.satLv[l] = avail[l] / float64(count[l])
				sc.cand = sc.cand[:0]
			}
		}
		rebuilds += sc.rebuilds
		rounds += sc.rounds
	}
	if rebuilds == 0 || rebuilds >= rounds {
		t.Fatalf("%d rebuilds in %d rounds: the candidate-only path or the rebuild went unexercised", rebuilds, rounds)
	}
}

// rippleFixture is a settled simulator with one link's capacity changed: the
// flows on that link are the ripple pass's seed members, extra are background
// flows sharing links with them (what a verification failure would adopt).
type rippleFixture struct {
	s       *Simulator
	w       *worker // the loop's worker, with the fixture's pass open
	members []int32
	extra   []int32
}

// newRippleFixture builds the fixture for c, or returns nil when the drawn
// link carries no flow. The draw consumes r identically on every call with an
// equal r state, so two calls build twins.
func newRippleFixture(t *testing.T, c fillCase, r *rand.Rand) *rippleFixture {
	t.Helper()
	s := c.build(t)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	l := topo.LinkID(r.Intn(len(c.caps)))
	scale := []float64{0.01, 0.3, 0.7, 1.5, 3}[r.Intn(5)] // 0.01: background eats the link
	if len(s.links[l].flows) == 0 {
		return nil
	}
	s.links[l].cap *= scale
	fx := &rippleFixture{s: s, w: s.beginPass()}
	for _, ref := range s.links[l].flows {
		fx.join(ref.fi)
		fx.members = append(fx.members, ref.fi)
	}
	for _, fi := range fx.members {
		h := &s.hot[fi]
		for _, l2 := range s.linkArena[h.off : h.off+h.nl] {
			for _, ref := range s.links[l2].flows {
				if s.hot[ref.fi].visit != fx.w.p.gen && len(fx.extra) < 3 {
					fx.join(ref.fi)
					fx.extra = append(fx.extra, ref.fi)
				}
			}
		}
	}
	return fx
}

// join marks the flow a member of the fixture's pass and prepares it, as the
// ripple pass does for every flow it takes into S.
func (fx *rippleFixture) join(fi int32) {
	h := &fx.s.hot[fi]
	h.visit = fx.w.p.gen
	fx.w.prepare(h)
}

// beginPass opens a pass on the loop's worker, stamped as the loop stamps
// one, for tests that drive the fill kernel and the ripple checks directly.
func (s *Simulator) beginPass() *worker {
	w := s.ws[0]
	w.p = s.newPass(&s.onLoop)
	return w
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fill runs the fills of one ripple pass over the given member sets — each a prefix of the next, as expansions only append — and returns
// every bit the pass's verification and seal read: the links list, member
// rates and certificates, the slot tables, and the verification arrays (vSum
// is what the seal writes to the link's rate).
func (fx *rippleFixture) fill(t *testing.T, sets ...[]int32) []uint64 {
	t.Helper()
	s, w := fx.s, fx.w
	sc := &w.sc
	var links []topo.LinkID
	from := 0
	for _, flows := range sets {
		var ok bool
		if links, _, ok = w.fill(flows, from, links); !ok {
			t.Fatal("fill took the defensive break")
		}
		from = len(flows)
	}
	var out []uint64
	for i, l := range links {
		if s.rIdx[l] != int32(i) {
			t.Fatalf("rIdx[%d] = %d, want slot %d", l, s.rIdx[l], i)
		}
		s.rIdx[l] = -1
		out = append(out, uint64(l), uint64(sc.members[i]), math.Float64bits(sc.prevSum[i]),
			math.Float64bits(sc.vSum[i]), math.Float64bits(sc.vMax[i]), math.Float64bits(sc.vBG[i]), boolBit(sc.vChg[i]))
	}
	for _, fi := range sets[len(sets)-1] {
		out = append(out, math.Float64bits(s.hot[fi].rate), uint64(s.hot[fi].cert))
	}
	return out
}

// forEachRippleFixture calls fn with twin fixtures over random and
// adversarial tables.
func forEachRippleFixture(t *testing.T, fn func(trial int, a, b *rippleFixture, r *rand.Rand)) {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	built := 0
	for trial := 0; trial < 1500; trial++ {
		c := randomTable(r, trial%tableKinds)
		seed := r.Int63()
		a := newRippleFixture(t, c, rand.New(rand.NewSource(seed)))
		b := newRippleFixture(t, c, rand.New(rand.NewSource(seed)))
		if a == nil {
			continue
		}
		built++
		fn(trial, a, b, r)
	}
	if built < 500 {
		t.Fatalf("only %d fixtures built", built)
	}
}

// TestBackgroundFillIgnoresLinkListOrder: the freeze walks the saturating
// link's own flow list, whose order is an accident of attach/detach history.
// Permuting every list leaves every rate, certificate and verification entry
// bit-identical — within a round all members freeze at one level — which is
// what licensed dropping the per-fill CSR member lists.
func TestBackgroundFillIgnoresLinkListOrder(t *testing.T) {
	forEachRippleFixture(t, func(trial int, a, b *rippleFixture, r *rand.Rand) {
		s := b.s
		for l := range s.links {
			list := s.links[l].flows
			r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			for i, ref := range list {
				s.posArena[s.hot[ref.fi].off+ref.slot] = int32(i)
			}
		}
		if got, want := b.fill(t, b.members), a.fill(t, a.members); !slices.Equal(got, want) {
			t.Fatalf("trial %d: permuted link lists changed the fill", trial)
		}
	})
}

// TestBackgroundRefillCarryOver: a refill after an expansion engages only the
// appended flows on top of the slot tables the pass already built. The result
// must equal, bit for bit, a pass that engaged the grown set from scratch.
func TestBackgroundRefillCarryOver(t *testing.T) {
	grown := 0
	forEachRippleFixture(t, func(trial int, a, b *rippleFixture, _ *rand.Rand) {
		if len(a.extra) == 0 {
			return
		}
		grown++
		all := append(append([]int32(nil), a.members...), a.extra...)
		mid := all[:len(a.members)+(len(a.extra)+1)/2]
		carried := a.fill(t, a.members, mid, all) // two forced expansions
		scratch := b.fill(t, all)
		if !slices.Equal(carried, scratch) {
			t.Fatalf("trial %d: carried-over set-up and from-scratch set-up disagree", trial)
		}
	})
	if grown < 200 {
		t.Fatalf("only %d fixtures had background flows to adopt", grown)
	}
}

// freezeRoundExhaustive is freezeRound as it was before the walk learned to
// stop: every slot in satList is walked, and every walk reads the link's whole
// flow list. The reference for TestFreezeRoundStopsAtLastMember.
func freezeRoundExhaustive(w *worker, links []topo.LinkID, level, cut float64) (frozen, parked int, incid int64) {
	s, sc := w.s, &w.sc
	for _, li := range sc.satList {
		cert := links[li]
		for _, ref := range s.links[cert].flows {
			h := &s.hot[ref.fi]
			if h.rate >= 0 {
				continue
			}
			h.rate, h.cert = level, cert
			chg := math.Abs(level-h.prevRate) > rippleTol*(h.prevRate+1)
			for _, l2 := range s.linkArena[h.off : h.off+h.nl] {
				i := s.rIdx[l2]
				sc.count[i]--
				sc.avail[i] -= level
				if sc.count[i] > 0 {
					lv := sc.avail[i] / float64(sc.count[i])
					if lv < sc.satLv[i] && sc.satLv[i] > cut {
						sc.cand = sc.cand[:0]
					}
					sc.satLv[i] = lv
				} else {
					sc.satLv[i] = math.Inf(1)
					parked++
				}
				sc.vSum[i] += level
				sc.vMax[i] = level
				sc.vChg[i] = sc.vChg[i] || chg
			}
			incid += int64(h.nl)
			frozen++
		}
	}
	return frozen, parked, incid
}

// roundState is every bit a fill round leaves behind: the slot tables, the
// verification arrays, and the members' rates and certificates.
func (fx *rippleFixture) roundState(n int, flows []int32) []uint64 {
	s, w := fx.s, fx.w
	sc := &w.sc
	var out []uint64
	for i := 0; i < n; i++ {
		out = append(out, uint64(sc.count[i]), math.Float64bits(sc.avail[i]), math.Float64bits(sc.satLv[i]),
			math.Float64bits(sc.vSum[i]), math.Float64bits(sc.vMax[i]), boolBit(sc.vChg[i]))
	}
	for _, fi := range flows {
		out = append(out, math.Float64bits(s.hot[fi].rate), uint64(s.hot[fi].cert))
	}
	return out
}

// TestFreezeRoundStopsAtLastMember: the freeze walk leaves a saturating link's
// list once the slot's unfrozen count reaches zero and skips a slot that is
// already at zero. Driven round by round beside a walk that reads every list
// to its end, it must select the same slots, freeze the same flows at the
// same certificates, and leave the same counts, residuals, levels and
// verification entries; the early exit only changes which entries are read.
func TestFreezeRoundStopsAtLastMember(t *testing.T) {
	skipped := 0
	forEachRippleFixture(t, func(trial int, a, b *rippleFixture, _ *rand.Rand) {
		flows := append(slices.Clone(a.members), a.extra...)
		arm := func(fx *rippleFixture) (*fillScratch, []topo.LinkID, int) {
			sc := &fx.w.sc
			sc.cand = sc.cand[:0]
			links, unfrozen, _ := fx.w.setUpFill(flows, 0, nil)
			return sc, links, unfrozen
		}
		sa, links, unfrozen := arm(a)
		sb, _, _ := arm(b) // twins: same links list
		level := 0.0
		for round := 0; unfrozen > 0; round++ {
			lo, cut, ok := sa.search(level)
			lo2, cut2, ok2 := sb.search(level)
			if !ok || !ok2 || lo != lo2 || cut != cut2 || !slices.Equal(sa.satList, sb.satList) {
				t.Fatalf("trial %d round %d: searches disagree: level %v/%v cut %v/%v slots %v/%v", trial, round, lo, lo2, cut, cut2, sa.satList, sb.satList)
			}
			level = lo
			f, p, w := a.w.freezeRound(links, level, cut)
			f2, p2, w2 := freezeRoundExhaustive(b.w, links, level, cut)
			if f != f2 || p != p2 || w != w2 {
				t.Fatalf("trial %d round %d: froze %d flows, parked %d slots, touched %d incidences; exhaustive walk %d, %d, %d", trial, round, f, p, w, f2, p2, w2)
			}
			if !slices.Equal(a.roundState(len(links), flows), b.roundState(len(links), flows)) {
				t.Fatalf("trial %d round %d: early-exit walk and exhaustive walk left different state", trial, round)
			}
			// A selected slot that froze nobody — no member frozen at this
			// level carries its link as certificate — was emptied by the
			// slots walked before it: the skip ran.
			for _, li := range sa.satList {
				if !slices.ContainsFunc(flows, func(fi int32) bool {
					h := &a.s.hot[fi]
					return h.rate == level && h.cert == links[li]
				}) {
					skipped++
				}
			}
			unfrozen -= f
		}
	})
	if skipped < 100 {
		t.Fatalf("only %d selected slots were emptied before their walk; the skip went unexercised", skipped)
	}
}

// certifyInPathOrder is check (a)'s search for a member's bottleneck as it was
// before the freeze link went first: the path's links in order, the first one
// that qualifies becomes the certificate.
func certifyInPathOrder(w *worker, h *flowHot, gen uint64, work *int64) bool {
	s := w.s
	rtol := h.rate + rippleTol*(h.rate+1)
	for _, l := range s.linkArena[h.off : h.off+h.nl] {
		if w.inScopeBottleneck(s.rIdx[l], l, rtol, gen, work) {
			h.cert = l
			return true
		}
	}
	return false
}

// checkMembers fills the fixture's members and runs check (a) over them as
// the ripple pass does, with the given bottleneck search. It returns which
// members were certified, the flows the others adopted, the background maxima
// the checks resolved (bgUnknown where none was needed) and the list entries
// the checks walked.
func (fx *rippleFixture) checkMembers(t *testing.T, certify func(*worker, *flowHot, uint64, *int64) bool) (certified []bool, adopted []int32, vBG []float64, walked int64) {
	t.Helper()
	s, w := fx.s, fx.w
	sc := &w.sc
	links, _, ok := w.fill(fx.members, 0, nil)
	if !ok {
		t.Fatal("fill took the defensive break")
	}
	for i, l := range links {
		c := s.links[l].cap
		sc.vSat[i] = sc.vSum[i] >= c-rippleTol*(c+1)
	}
	flows := slices.Clone(fx.members)
	for _, fi := range fx.members {
		h := &s.hot[fi]
		ok := certify(w, h, w.p.gen, &walked)
		certified = append(certified, ok)
		if !ok {
			flows, _ = w.adoptBeaters(h, flows, w.p.gen, &walked)
		}
	}
	return certified, flows[len(fx.members):], slices.Clone(sc.vBG[:len(links)]), walked
}

// TestCheckMembersFreezeLinkFirst: check (a) tries the link the fill froze a
// member at before the rest of its path. Which link ends up as the certificate
// may differ from a search in path order; what the pass does next may not:
// the same members are certified, the rest adopt the same flows in the same
// order, and every background maximum both searches resolved is the same
// value. Trying the freeze link first resolves fewer of them — that is the
// point — so it walks fewer list entries over the suite.
func TestCheckMembersFreezeLinkFirst(t *testing.T) {
	var first, inOrder int64
	failed, adoptions := 0, 0
	forEachRippleFixture(t, func(trial int, a, b *rippleFixture, _ *rand.Rand) {
		cert, adopted, vBG, w := a.checkMembers(t, (*worker).certifyMember)
		cert2, adopted2, vBG2, w2 := b.checkMembers(t, certifyInPathOrder)
		if !slices.Equal(cert, cert2) {
			t.Fatalf("trial %d: freeze-link-first certified %v, path order %v", trial, cert, cert2)
		}
		if !slices.Equal(adopted, adopted2) {
			t.Fatalf("trial %d: freeze-link-first adopted %v, path order %v", trial, adopted, adopted2)
		}
		for i := range vBG {
			if vBG[i] != vBG2[i] && vBG[i] != bgUnknown && vBG2[i] != bgUnknown {
				t.Fatalf("trial %d: slot %d background maximum %v, path order %v", trial, i, vBG[i], vBG2[i])
			}
		}
		first, inOrder = first+w, inOrder+w2
		if slices.Contains(cert, false) {
			failed++
		}
		adoptions += len(adopted)
	})
	if failed < 50 || adoptions < 50 {
		t.Fatalf("%d fixtures had an uncertified member, %d flows adopted: the adoption path went unexercised", failed, adoptions)
	}
	if first >= inOrder {
		t.Fatalf("freeze-link-first walked %d list entries, path order %d: no walk saved", first, inOrder)
	}
	t.Logf("list entries walked by check (a): %d freeze-link-first, %d in path order", first, inOrder)
}

// TestFlowRecordIsOneCacheLine pins the point of the record layout: a pass
// pays one line per flow it touches.
func TestFlowRecordIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(flowHot{}); got != 64 {
		t.Fatalf("flowHot is %d bytes, want 64", got)
	}
}

// TestFlowColdRecordSize pins the rest of a flow's cost: with flowHot, 96
// bytes per flow (per-field columns and a copy of the route took 154), and
// 16-byte heap events and handles.
func TestFlowColdRecordSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"flowCold", unsafe.Sizeof(flowCold{}), 32},
		{"arrEvent", unsafe.Sizeof(arrEvent{}), 16},
		{"finEvent", unsafe.Sizeof(finEvent{}), 16},
		{"Flow", unsafe.Sizeof(Flow{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
