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
	// check, when set, inspects the engine counters of the forceFull run.
	check func(t *testing.T, st EngineStats)
}

// refFill is the textbook two-scan progressive filling the fill is checked
// against: every round rescans every link for the lowest saturation level,
// rescans again for the links within satTol of it, and freezes their flows.
// No parking, no candidate list, no threshold.
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
		s.links[l].cap = cp
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

	// The cases with a check pin the search's cost: every flow crosses link 0
	// and one private link, so slot i is link i, and a round visits the
	// candidates left over from the round before (cand) plus, when it has to
	// rebuild the list, all n slots. A rebuild collects, in slot order, every
	// slot within the threshold of the lowest level seen so far — so always
	// slot 0, the first one read — and the threshold it ends on is candFactor
	// (1.5) times the minimum.
	counters := func(rounds, scans, rebuilds int64) func(*testing.T, EngineStats) {
		return func(t *testing.T, st EngineStats) {
			if st.FillRounds != rounds || st.LinkScans != scans || st.ScanRebuilds != rebuilds {
				t.Errorf("FillRounds=%d LinkScans=%d ScanRebuilds=%d, want %d, %d and %d",
					st.FillRounds, st.LinkScans, st.ScanRebuilds, rounds, scans, rebuilds)
			}
		}
	}
	// Saturation levels rise as flows freeze — in exact arithmetic. Link 0
	// carries 30000 flows and sits 3e-12 (relative) above the level flow 0
	// freezes at on link 1, outside the tie cut; taking that one fair-share-
	// sized allocation out moves its level by less than the two roundings
	// cost, and for the capacity found here the level comes out lower than it
	// was. The fill must notice and rescan: round 1 visits 0+2 and keeps both
	// slots, the dip empties the list, round 2 visits 0+2 again — two
	// rebuilds, where a list trusted blindly would read its 2 entries and
	// rebuild once.
	dip := fillCase{name: "threshold: rounding dip", check: counters(2, 2+2, 2)}
	for l0, n := 1.0, 30000.0; dip.caps == nil; l0 += 0.001 {
		a := l0 * (1 + 3e-12) * n
		if old := a / n; old > l0+(satTol*l0+eps) && (a-l0)/(n-1) < old {
			dip.caps = []float64{a, l0}
			dip.flows = [][]int{{0, 1}}
			for i := 1; i < int(n); i++ {
				dip.flows = append(dip.flows, []int{0})
			}
		}
	}
	return []fillCase{
		dip,
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
		{
			// One rebuild (0 candidates + 5 slots) collects everything: slot
			// 0 as the first minimum, then the four private links tying at 2.
			// All four flows freeze in that round.
			name:  "threshold: all levels equal",
			caps:  []float64{wide, 2, 2, 2, 2},
			flows: [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}},
			check: counters(1, 0+5, 1),
		},
		{
			// Every level is a thousand times the one before, so no rebuild
			// keeps more than slot 0 and the new minimum: round 1 visits 0+8,
			// each of the six later rounds drops those two candidates (one
			// parked, slot 0 far above the threshold) and rebuilds, 2+8.
			name:  "threshold: levels spanning 1e-9 to 1e9",
			caps:  []float64{1e15, 1e-9, 1e-6, 1e-3, 1, 1e3, 1e6, 1e9},
			flows: [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}},
			check: counters(7, 8+6*(2+8), 7),
		},
		{
			// Link 1 has nothing to give — what a link whose background
			// consumes it looks like to the ripple fill. The minimum 0 puts
			// the threshold at the tie cut itself (eps), which nothing else is
			// within: rounds visit 0+4, 2+4 and 2+4, each rebuilding to
			// {slot 0, the new minimum}.
			name:    "threshold: zero level",
			caps:    []float64{wide, 1, 1, 4},
			rawCaps: map[int]float64{1: 0},
			flows:   [][]int{{0, 1}, {0, 2}, {0, 3}},
			check:   counters(3, 4+(2+4)+(2+4), 3),
		},
		{
			// Round 1 (0+4) sets the threshold at 1.5 and collects slots 0, 1
			// and 2; link 3, a rounding error above 1.5, stays out. Round 2
			// reads the 3 candidates and finds the minimum 1.5 sitting on the
			// threshold: its tie cut reaches past it, where link 3 is, so the
			// list cannot be trusted and is rebuilt (+4) — both links
			// saturate together, as in the reference.
			name:  "threshold: tie straddling the threshold",
			caps:  []float64{wide, 1, 1.5, 1.5 + 1e-13},
			flows: [][]int{{0, 1}, {0, 2}, {0, 3}},
			check: counters(2, 4+(3+4), 2),
		},
		{
			// Round 1 (0+6) collects slots 0-3 under threshold 1.5. Round 2
			// reads those 4 and keeps links 2 and 3; round 3 reads 2 and keeps
			// link 3; round 4 reads 1, which has parked — the list is empty —
			// and rebuilds (+6) to slots 0, 4 and 5 under threshold 6; round
			// 5 reads those 3. An exhaustive scan would visit 5*6 = 30.
			name:  "threshold: list empties mid-fill",
			caps:  []float64{wide, 1, 1.2, 1.4, 4, 4.4},
			flows: [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}},
			check: counters(5, 6+4+2+(1+6)+3, 2),
		},
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
// configurations (scoped and the forceFull reference), and through the fill
// directly over the whole active set, and requires every rate to be bit-equal
// to the two-scan reference.
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
				s.forceFull = full
				if err := s.Run(0); err != nil {
					t.Fatal(err)
				}
				if got := c.rates(s); !bitEqual(got, want) {
					t.Errorf("engine (forceFull=%v) rates %v, reference %v", full, got, want)
				}
				if full && c.check != nil {
					c.check(t, s.Stats())
				}
			}

			// The kernel directly, over the whole active set: a closed set,
			// so the fill finds no background and every link offers full
			// capacity.
			s := c.build(t)
			if err := s.Run(0); err != nil {
				t.Fatal(err)
			}
			var routed []int32 // ripple sets only ever hold flows with links
			for _, fi := range s.active {
				if s.hot[fi].nl > 0 {
					routed = append(routed, fi)
				}
			}
			w := s.beginPass()
			for _, fi := range routed {
				w.prepare(&s.hot[fi])
				s.hot[fi].visit = w.p.gen
			}
			links, _, ok := w.fill(routed, 0, nil)
			if !ok {
				t.Fatal("fill took the defensive break")
			}
			for i, l := range links {
				if w.sc.vBG[i] != -1 {
					t.Fatalf("fill found background on link %d of a closed set", l)
				}
				s.rIdx[l] = -1
			}
			if got := c.rates(s); !bitEqual(got, want) {
				t.Errorf("fill rates %v, reference %v", got, want)
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

// TestEngineStatsFillCounters pins the kernel counters on an instance small
// enough to count by hand, and the same numbers again in the registry when
// telemetry is on. The links start at levels 1, 1.5 and 8/3 and saturate at 1,
// 2 and 5, one per round. Round 1 has no candidates and scans all 3 slots,
// keeping links 0 and 1 (threshold 1.5); round 2 reads those 2 — link 0 has
// parked, link 1 has risen to 2 — and rescans 3 for link 1 alone (link 2 sits
// at 3.5, threshold 3); round 3 reads that 1, parked, and rescans 3. Before
// the thresholded search every round scanned every slot, 9 in all: three
// slots are too few for a candidate list to pay, and 12 says so.
func TestEngineStatsFillCounters(t *testing.T) {
	c := fillCase{caps: []float64{1, 3, 8}, flows: [][]int{{0, 1, 2}, {1, 2}, {2}}}
	s := c.build(t)
	s.forceFull = true
	tel := NewTelemetry(obs.NewRegistry())
	s.SetTelemetry(tel)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	const scans = 3 + (2 + 3) + (1 + 3)
	if st.FillRounds != 3 || st.LinkScans != scans || st.ScanRebuilds != 3 {
		t.Fatalf("FillRounds=%d LinkScans=%d ScanRebuilds=%d, want 3, %d and 3", st.FillRounds, st.LinkScans, st.ScanRebuilds, scans)
	}
	if got := tel.FillRounds.Value(); got != 3 {
		t.Errorf("fluid.fill_rounds = %d, want 3", got)
	}
	if got := tel.LinkScans.Value(); got != scans {
		t.Errorf("fluid.link_scans = %d, want %d", got, scans)
	}
	if got := tel.ScanRebuilds.Value(); got != 3 {
		t.Errorf("fluid.scan_rebuilds = %d, want 3", got)
	}
}
