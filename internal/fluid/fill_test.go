package fluid

import (
	"math"
	"slices"
	"testing"

	"sharebackup/internal/obs"
	"sharebackup/internal/topo"
)

// fillCase is one hand-built progressive-filling instance: link capacities,
// and each flow's path as a set of link indices (the engine treats a path as
// an opaque link set).
type fillCase struct {
	name  string
	caps  []float64
	flows [][]int
	// rawCaps, when set, overwrites simulator capacities after construction
	// with values topo.AddLink would reject.
	rawCaps map[int]float64
	// check, when set, inspects the engine counters of the closed-mode run.
	check func(t *testing.T, st EngineStats)
}

// refFill is the textbook two-scan progressive filling fillRates is checked
// against: every round rescans every link for the lowest saturation level,
// rescans again for the links within satTol of it, and freezes their flows.
// No parking, no compaction, no candidate list.
func refFill(caps []float64, flows [][]int) []float64 {
	avail := append([]float64(nil), caps...)
	count := make([]int, len(caps))
	rate := make([]float64, len(flows))
	unfrozen := 0
	for i, f := range flows {
		if len(f) == 0 {
			continue
		}
		rate[i] = -1
		unfrozen++
		for _, l := range f {
			count[l]++
		}
	}
	level := 0.0
	for unfrozen > 0 {
		minL := math.Inf(1)
		for l := range avail {
			if count[l] > 0 {
				if lv := avail[l] / float64(count[l]); lv < minL {
					minL = lv
				}
			}
		}
		if minL < level {
			minL = level
		}
		level = minL
		slack := satTol*level + eps
		var sat []int
		for l := range avail {
			if count[l] > 0 && avail[l]/float64(count[l]) <= level+slack {
				sat = append(sat, l)
			}
		}
		for _, l := range sat {
			for i, f := range flows {
				if rate[i] >= 0 || !slices.Contains(f, l) {
					continue
				}
				rate[i] = level
				unfrozen--
				for _, l2 := range f {
					count[l2]--
					avail[l2] -= level
				}
			}
		}
	}
	return rate
}

// build makes the case's topology and a simulator holding its flows, all
// arriving at time zero.
func (c fillCase) build(t *testing.T) *Simulator {
	t.Helper()
	g := &topo.Topology{}
	for i, cp := range c.caps {
		a := g.AddNode(topo.KindEdge, 0, 2*i)
		b := g.AddNode(topo.KindEdge, 0, 2*i+1)
		if _, err := g.AddLink(a, b, cp); err != nil {
			t.Fatal(err)
		}
	}
	s := New(g)
	for l, cp := range c.rawCaps {
		s.caps[l] = cp
	}
	for i, f := range c.flows {
		p := topo.Path{}
		for _, l := range f {
			p.Links = append(p.Links, topo.LinkID(l))
		}
		if err := s.AddFlow(FlowID(i), 1e9, 0, p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func (c fillCase) rates(s *Simulator) []float64 {
	out := make([]float64, len(c.flows))
	for i := range out {
		out[i] = s.Flow(FlowID(i)).Rate()
	}
	return out
}

func fillCases() []fillCase {
	// wide is a link no case ever saturates. Cases that are about slot order
	// end every path on it, which joins their flows into one link-sharing
	// component (separate components are filled separately and never tie)
	// without adding a bottleneck.
	const wide = 1e6

	// A hundred flows, each bottlenecked on a private link of its own
	// capacity, all crossing link 0: every round saturates one private link
	// and parks it. With 101 slots the scans run 51 rounds at 101, compact
	// (101 visited) to the 50 live slots, run 26 rounds at 50, compact (50)
	// to 24 — under compactMinSlots, so no more — and finish 23 rounds at 24.
	chain := fillCase{name: "compaction", caps: []float64{wide}}
	for i := 0; i < 100; i++ {
		chain.caps = append(chain.caps, 1+float64(i)*0.25)
		chain.flows = append(chain.flows, []int{0, i + 1})
	}
	chain.check = func(t *testing.T, st EngineStats) {
		const want = 51*101 + 101 + 26*50 + 50 + 23*24
		if st.FillRounds != 100 || st.LinkScans != want {
			t.Errorf("FillRounds=%d LinkScans=%d, want 100 and %d (uncompacted: %d)", st.FillRounds, st.LinkScans, want, 100*101)
		}
	}
	return []fillCase{
		{
			// Link 2 is wide: both its flows freeze on links 0 and 1, so it
			// dies mid-fill without ever saturating, while link 3 (shared
			// with the slower of them) saturates later off the residual.
			name:  "links dying mid-fill",
			caps:  []float64{1, 2, 100, 3},
			flows: [][]int{{0, 2}, {1, 2, 3}, {3}, {0}},
		},
		{
			// Links 0 and 1 tie within satTol and saturate in one round;
			// link 2 is 1.2e-6 higher and must wait for its own.
			name:  "ties within satTol",
			caps:  []float64{1, 1 + 1e-13, 1 + 1.2e-6, 5},
			flows: [][]int{{0, 3}, {1, 3}, {2, 3}, {3}},
		},
		{
			// In slot order, links 0 and 1 tie each other before link 2 sets
			// a far lower level: the candidate list must drop both.
			name:  "candidates above the final level",
			caps:  []float64{3, 3 + 1e-13, 0.5, 1 + 1e-13, wide},
			flows: [][]int{{0, 4}, {1, 4}, {2, 4}, {3, 4}},
		},
		{
			// Link 1 is within link 0's tie threshold but not within the
			// lower one link 2 sets, while link 0 is within both: the list
			// survives the new minimum and the final filter removes only
			// link 1.
			name:  "candidate filtered after a lower minimum",
			caps:  []float64{1 + 1e-12, 1 + 2.5e-12, 1, wide},
			flows: [][]int{{0, 3}, {1, 3}, {2, 3}},
		},
		chain,
		{
			// A link whose residual falls below the current level (a
			// negative capacity stands in for accumulated rounding): the
			// level must not step down, and the link's flows freeze at it.
			name:    "minL < level rounding guard",
			caps:    []float64{1, 1, 4},
			rawCaps: map[int]float64{1: -0.5},
			flows:   [][]int{{0, 2}, {1, 2}, {2}},
		},
		{
			name:  "stalled flow",
			caps:  []float64{2},
			flows: [][]int{{0}, {}, {0}},
		},
	}
}

// TestFillRatesTable runs each case through the public engine in both
// configurations (scoped and ForceFullRecompute), and through the kernel
// directly in closed and in background mode, and requires every rate to be
// bit-equal to the two-scan reference.
func TestFillRatesTable(t *testing.T) {
	for _, c := range fillCases() {
		t.Run(c.name, func(t *testing.T) {
			caps := append([]float64(nil), c.caps...)
			for l, cp := range c.rawCaps {
				caps[l] = cp
			}
			want := refFill(caps, c.flows)

			for _, full := range []bool{false, true} {
				s := c.build(t)
				s.ForceFullRecompute(full)
				if err := s.Run(0); err != nil {
					t.Fatal(err)
				}
				if got := c.rates(s); !bitEqual(got, want) {
					t.Errorf("engine (ForceFullRecompute=%v) rates %v, reference %v", full, got, want)
				}
				if full && c.check != nil {
					c.check(t, s.Stats())
				}
			}

			// The kernel directly, over the whole active set: closed mode,
			// then background mode with every flow a member (no background
			// at all, so every link offers full capacity).
			s := c.build(t)
			if err := s.Run(0); err != nil {
				t.Fatal(err)
			}
			sc := s.scratchFor(0)
			var routed []int32 // ripple sets only ever hold flows with links
			for _, fi := range s.active {
				if s.fNL[fi] > 0 {
					routed = append(routed, fi)
				}
			}
			for _, withBG := range []bool{false, true} {
				s.passGen++
				s.gen++
				for _, fi := range routed {
					s.prepare(fi)
					s.fVisit[fi] = s.gen
				}
				var links []topo.LinkID
				if _, ok := s.fillRates(routed, sc, s.gen, withBG, &links); !ok {
					t.Fatalf("fillRates(withBG=%v) took the defensive break", withBG)
				}
				for _, l := range links {
					s.rIdx[l] = -1
				}
				if got := c.rates(s); !bitEqual(got, want) {
					t.Errorf("fillRates(withBG=%v) rates %v, reference %v", withBG, got, want)
				}
				for l, li := range sc.linkIdx {
					if li != -1 {
						t.Fatalf("fillRates(withBG=%v) left linkIdx[%d] = %d", withBG, l, li)
					}
				}
			}
		})
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEngineStatsFillCounters pins the two kernel counters on an instance
// small enough to count by hand: three rounds (levels 1, 2, 5 on links 0, 1,
// 2), each scanning all three slots — below compactMinSlots, parked slots
// stay — and the same numbers again in the registry when telemetry is on.
func TestEngineStatsFillCounters(t *testing.T) {
	c := fillCase{caps: []float64{1, 3, 8}, flows: [][]int{{0, 1, 2}, {1, 2}, {2}}}
	s := c.build(t)
	s.ForceFullRecompute(true)
	tel := NewTelemetry(obs.NewRegistry())
	s.SetTelemetry(tel)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FillRounds != 3 || st.LinkScans != 9 {
		t.Fatalf("FillRounds=%d LinkScans=%d, want 3 and 9", st.FillRounds, st.LinkScans)
	}
	if got := tel.FillRounds.Value(); got != 3 {
		t.Errorf("fluid.fill_rounds = %d, want 3", got)
	}
	if got := tel.LinkScans.Value(); got != 9 {
		t.Errorf("fluid.link_scans = %d, want 9", got)
	}
}
