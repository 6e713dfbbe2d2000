package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sharebackup/internal/topo"
)

// The properties the fill's bookkeeping rests on (DESIGN.md §15): the
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
	if len(s.linkFlows[l]) == 0 {
		return nil
	}
	s.caps[l] *= scale
	fx := &rippleFixture{s: s}
	s.gen++
	s.passGen++
	for _, ref := range s.linkFlows[l] {
		s.fVisit[ref.fi] = s.gen
		s.prepare(ref.fi)
		fx.members = append(fx.members, ref.fi)
	}
	for _, fi := range fx.members {
		for _, l2 := range s.linkArena[s.fOff[fi] : s.fOff[fi]+s.fNL[fi]] {
			for _, ref := range s.linkFlows[l2] {
				if s.fVisit[ref.fi] != s.gen && len(fx.extra) < 3 {
					s.fVisit[ref.fi] = s.gen
					s.prepare(ref.fi)
					fx.extra = append(fx.extra, ref.fi)
				}
			}
		}
	}
	return fx
}

// fill runs the background fills of one ripple pass over the given member
// sets — each a prefix of the next, as expansions only append — and returns
// every bit the pass's verification and seal read: the links list, member
// rates and certificates, the slot tables, and the verification arrays (vSum
// is what the seal writes to linkRate).
func (fx *rippleFixture) fill(t *testing.T, sets ...[]int32) []uint64 {
	t.Helper()
	s := fx.s
	sc := s.scratchFor(0)
	sc.members, sc.prevSum = sc.members[:0], sc.prevSum[:0]
	var links []topo.LinkID
	from := 0
	for _, flows := range sets {
		var ok bool
		if links, _, ok = s.fillBackground(flows, from, sc, links); !ok {
			t.Fatal("fillBackground took the defensive break")
		}
		from = len(flows)
	}
	var out []uint64
	for i, l := range links {
		if s.rIdx[l] != int32(i) {
			t.Fatalf("rIdx[%d] = %d, want slot %d", l, s.rIdx[l], i)
		}
		s.rIdx[l] = -1
		chg := uint64(0)
		if s.vChg[i] {
			chg = 1
		}
		out = append(out, uint64(l), uint64(sc.members[i]), math.Float64bits(sc.prevSum[i]),
			math.Float64bits(s.vSum[i]), math.Float64bits(s.vMax[i]), math.Float64bits(s.vBG[i]), chg)
	}
	for _, fi := range sets[len(sets)-1] {
		out = append(out, math.Float64bits(s.fRate[fi]), uint64(s.fCert[fi]))
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
		for _, list := range s.linkFlows {
			r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			for i, ref := range list {
				s.posArena[s.fOff[ref.fi]+ref.slot] = int32(i)
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
