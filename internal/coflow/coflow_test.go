package coflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

const sampleTrace = `3 2
0 0 2 0 1 1 2:6
1 1500 1 2 2 0:3 2:4
`

func TestParse(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRacks != 3 || len(tr.Coflows) != 2 {
		t.Fatalf("parsed %d racks, %d coflows", tr.NumRacks, len(tr.Coflows))
	}
	c0 := tr.Coflows[0]
	// Coflow 0: mappers {0,1}, reducer 2 with 6 MB -> 2 flows of 3 MB.
	if c0.Width() != 2 {
		t.Fatalf("coflow 0 width = %d, want 2", c0.Width())
	}
	for _, f := range c0.Flows {
		if f.Dst != 2 || math.Abs(f.Bytes-3*MB) > 1 {
			t.Errorf("coflow 0 flow = %+v", f)
		}
	}
	// Coflow 1: mapper {2}, reducers 0 (3MB) and 2 (4MB). The 2->2 flow
	// is rack-local and dropped.
	c1 := tr.Coflows[1]
	if c1.Width() != 1 {
		t.Fatalf("coflow 1 width = %d, want 1 (local flow dropped)", c1.Width())
	}
	if c1.Flows[0].Src != 2 || c1.Flows[0].Dst != 0 || math.Abs(c1.Flows[0].Bytes-3*MB) > 1 {
		t.Errorf("coflow 1 flow = %+v", c1.Flows[0])
	}
	if c1.Arrival != 1.5 {
		t.Errorf("coflow 1 arrival = %v s, want 1.5", c1.Arrival)
	}
}

// TestParseDropsCoflowWithNoCrossRackFlow: a coflow whose every mapper is
// its reducer's rack puts nothing on the fabric, so no failure can hit it and
// Fig. 1's shares must not count it. The header counts it; Coflows does not,
// and Dropped says so.
func TestParseDropsCoflowWithNoCrossRackFlow(t *testing.T) {
	tr, err := Parse(strings.NewReader("16 2\n0 0 1 2 1 2:5\n1 5 1 0 1 3:1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Coflows) != 1 || tr.Coflows[0].ID != 1 || tr.Dropped != 1 {
		t.Fatalf("parsed %d coflows (%+v), %d dropped; want coflow 1 kept and 1 dropped", len(tr.Coflows), tr.Coflows, tr.Dropped)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"short header", "3\n"},
		{"count mismatch", "3 5\n0 0 1 0 1 1:1\n"},
		{"mapper out of range", "3 1\n0 0 1 9 1 1:1\n"},
		{"reducer out of range", "3 1\n0 0 1 0 1 9:1\n"},
		{"bad reducer format", "3 1\n0 0 1 0 1 1-1\n"},
		{"zero mappers", "3 1\n0 0 0 1 1:1\n"},
		{"negative size", "3 1\n0 0 1 0 1 1:-2\n"},
		{"NaN size", "2 1\n0 0 1 0 1 1:NaN\n"},
		{"infinite size", "2 1\n0 0 1 0 1 1:+Inf\n"},
		{"size overflowing bytes", "2 1\n0 0 1 0 1 1:1e305\n"},
		{"negative arrival", "2 1\n0 -5 1 0 1 1:1\n"},
		{"zero racks", "0 0\n"},
		{"negative racks", "-3 0\n"},
		{"truncated", "3 1\n0 0 2 0\n"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: parse accepted", c.name)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	tr, err := Generate(GenConfig{Racks: 20, NumCoflows: 30, Duration: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Format(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\nfile:\n%s", err, buf.String())
	}
	if len(back.Coflows) != len(tr.Coflows) {
		t.Fatalf("round trip lost coflows: %d -> %d", len(tr.Coflows), len(back.Coflows))
	}
	// Total bytes are preserved within formatting precision. (Width can
	// legitimately change: Format regroups flows into full m x r
	// rectangles.)
	for i := range tr.Coflows {
		a, b := tr.Coflows[i].TotalBytes(), back.Coflows[i].TotalBytes()
		if math.Abs(a-b)/a > 1e-6 && math.Abs(a-b) > 1 {
			t.Errorf("coflow %d bytes %v -> %v", i, a, b)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Seed: 9, NumCoflows: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Seed: 9, NumCoflows: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Coflows) != len(b.Coflows) {
		t.Fatal("nondeterministic coflow count")
	}
	for i := range a.Coflows {
		if a.Coflows[i].Arrival != b.Coflows[i].Arrival || a.Coflows[i].Width() != b.Coflows[i].Width() {
			t.Fatalf("coflow %d differs between same-seed runs", i)
		}
	}
	c, err := Generate(GenConfig{Seed: 10, NumCoflows: 50})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Coflows {
		if a.Coflows[i].Width() != c.Coflows[i].Width() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// traceHash folds every coflow's ID and arrival bits and every flow's Src,
// Dst and Bytes bits into one FNV-1a sum, so a pin on it catches any change
// to what Generate draws, not only to the statistics other tests check.
func traceHash(h hash.Hash64, tr *Trace) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(tr.NumRacks))
	word(uint64(len(tr.Coflows)))
	for i := range tr.Coflows {
		c := &tr.Coflows[i]
		word(uint64(c.ID))
		word(math.Float64bits(c.Arrival))
		word(uint64(len(c.Flows)))
		for _, f := range c.Flows {
			word(uint64(f.Src))
			word(uint64(f.Dst))
			word(math.Float64bits(f.Bytes))
		}
	}
}

// TestGeneratePinned pins Generate's output bit for bit. The Fig. 1c
// benchmark picks its studies by generating traces of 128 racks and 40
// coflows over 300 s for seeds 1, 2, ... and keeping those narrow enough;
// the goldens only see the traces it keeps, so the ones it rejects (which
// decide which studies run) are pinned here, with two traces at the default
// 150-rack, 526-coflow shape.
func TestGeneratePinned(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(1); seed <= 172; seed++ {
		tr, err := Generate(GenConfig{Racks: 128, NumCoflows: 40, Duration: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		traceHash(h, tr)
	}
	if got, want := h.Sum64(), uint64(0x1c192378993b2941); got != want {
		t.Errorf("picker-shaped traces (seeds 1-172) hash to %#x, want %#x", got, want)
	}
	for _, tc := range []struct {
		seed int64
		want uint64
	}{{1, 0xd28c1183f5656d07}, {2, 0x530b2ed59fd6038b}} {
		tr, err := Generate(GenConfig{Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		traceHash(h, tr)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("default trace (seed %d) hashes to %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}

// TestPermuterIsRandPerm: the permuter makes rand.Perm's draws and gives
// its permutations, and leaves the RNG where rand.Perm leaves it. The
// 300 000-element permutation reaches draws Intn rejects.
func TestPermuterIsRandPerm(t *testing.T) {
	const maxLen = 300000
	for seed := int64(1); seed <= 3; seed++ {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		q := newPermuter(got, maxLen)
		buf := make([]int, maxLen)
		for _, n := range []int{1, 2, 3, 7, 64, 128, 150, 1000, maxLen} {
			q.perm(buf[:n])
			if w := want.Perm(n); !slices.Equal(buf[:n], w) {
				t.Fatalf("seed %d: permutation of %d differs from rand.Perm", seed, n)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: after a permutation of %d the RNG draws %d, rand.Perm's %d", seed, n, g, w)
			}
		}
	}
}

// TestGenerateAllocs gates the generator's allocations on the picker's
// shape: the trace, its coflow slice, the RNG, the permutation buffer and
// its reciprocal table, and one flow slice per coflow. Drawing each coflow's
// racks with rand.Perm and growing its flows by append cost 340.
func TestGenerateAllocs(t *testing.T) {
	cfg := GenConfig{Racks: 128, NumCoflows: 40, Duration: 300, Seed: 1}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(cfg.NumCoflows + 10); allocs > max {
		t.Errorf("Generate allocates %v times per trace, want at most %v", allocs, max)
	}
}

func TestGenerateMarginals(t *testing.T) {
	tr, err := Generate(GenConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRacks != 150 || len(tr.Coflows) != 526 {
		t.Fatalf("defaults: %d racks, %d coflows", tr.NumRacks, len(tr.Coflows))
	}
	widths := make([]int, len(tr.Coflows))
	for i := range tr.Coflows {
		w := tr.Coflows[i].Width()
		if w < 1 {
			t.Fatalf("coflow %d has no flows", i)
		}
		widths[i] = w
	}
	sort.Ints(widths)
	median := widths[len(widths)/2]
	max := widths[len(widths)-1]
	// Heavy tail: the median coflow is narrow, the widest is orders of
	// magnitude wider (the Facebook trace spans 1 to >20k flows).
	if median > 60 {
		t.Errorf("median width = %d; want mostly narrow coflows", median)
	}
	if max < 100 {
		t.Errorf("max width = %d; tail not heavy enough", max)
	}
	// Arrivals within horizon and sorted.
	last := -1.0
	for i := range tr.Coflows {
		a := tr.Coflows[i].Arrival
		if a < last {
			t.Fatal("arrivals not sorted")
		}
		if a < 0 || a > 3600 {
			t.Fatalf("arrival %v outside horizon", a)
		}
		last = a
	}
	// All endpoints in range and no rack-local flows.
	for i := range tr.Coflows {
		for _, f := range tr.Coflows[i].Flows {
			if f.Src == f.Dst {
				t.Fatalf("coflow %d has a rack-local flow", i)
			}
			if f.Src < 0 || f.Src >= 150 || f.Dst < 0 || f.Dst >= 150 {
				t.Fatalf("coflow %d flow endpoint out of range: %+v", i, f)
			}
			if f.Bytes <= 0 {
				t.Fatalf("coflow %d non-positive flow size", i)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Racks: 1}); err == nil {
		t.Error("1-rack config accepted")
	}
	if _, err := Generate(GenConfig{NumCoflows: -5}); err == nil {
		t.Error("negative coflow count accepted")
	}
	if _, err := Generate(GenConfig{Duration: -1}); err == nil {
		t.Error("negative duration accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		cfg   GenConfig
	}{
		{"Duration", GenConfig{Duration: nan}},
		{"Duration", GenConfig{Duration: inf}},
		{"MapperLogMean", GenConfig{MapperLogMean: nan}},
		{"MapperLogStd", GenConfig{MapperLogStd: -inf}},
		{"ReducerLogMean", GenConfig{ReducerLogMean: inf}},
		{"ReducerLogStd", GenConfig{ReducerLogStd: nan}},
		{"SizeLogMeanMB", GenConfig{SizeLogMeanMB: nan}},
		{"SizeLogStdMB", GenConfig{SizeLogStdMB: nan}},
		// Finite parameters whose draws overflow or underflow a size.
		{"SizeLogMeanMB", GenConfig{SizeLogMeanMB: 1000}},
		{"SizeLogMeanMB", GenConfig{SizeLogMeanMB: -1000}},
	} {
		if _, err := Generate(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.field+"=") {
			t.Errorf("%+v: err = %v, want one naming %s", tc.cfg, err, tc.field)
		}
	}
	// A huge finite width parameter clips to every rack, as documented,
	// rather than to one.
	tr, err := Generate(GenConfig{Racks: 5, NumCoflows: 3, MapperLogMean: 1e6, ReducerLogMean: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Coflows {
		if c.Width() != 5*4 {
			t.Fatalf("coflow %d has %d flows, want every mapper to every other reducer (20)", c.ID, c.Width())
		}
	}
}

func TestPartition(t *testing.T) {
	tr := &Trace{NumRacks: 4, Coflows: []Coflow{
		{ID: 0, Arrival: 10, Flows: []Flow{{0, 1, 1}}},
		{ID: 1, Arrival: 310, Flows: []Flow{{1, 2, 1}}},
		{ID: 2, Arrival: 320, Flows: []Flow{{2, 3, 1}}},
		{ID: 3, Arrival: 900, Flows: []Flow{{0, 3, 1}}},
	}}
	windows, err := tr.Partition(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 4 {
		t.Fatalf("windows = %d, want 4 (0-300, 300-600, 600-900, 900-1200)", len(windows))
	}
	if len(windows[0].Coflows) != 1 || len(windows[1].Coflows) != 2 ||
		len(windows[2].Coflows) != 0 || len(windows[3].Coflows) != 1 {
		t.Fatalf("window sizes = %d,%d,%d,%d", len(windows[0].Coflows), len(windows[1].Coflows),
			len(windows[2].Coflows), len(windows[3].Coflows))
	}
	// Arrivals rebased to window start.
	if got := windows[1].Coflows[0].Arrival; got != 10 {
		t.Errorf("rebased arrival = %v, want 10", got)
	}
	if got := windows[3].Coflows[0].Arrival; got != 0 {
		t.Errorf("rebased arrival = %v, want 0", got)
	}
	// A window Partition cannot count by is an error naming it, not a
	// makeslice panic; an infinite one is one window.
	for _, w := range []float64{0, -1, math.NaN(), 1e-300} {
		if _, err := tr.Partition(w); err == nil || !strings.Contains(err.Error(), fmt.Sprint(w)) {
			t.Errorf("window %v: err = %v, want one naming the window", w, err)
		}
	}
	one, err := tr.Partition(math.Inf(1))
	if err != nil || len(one) != 1 || len(one[0].Coflows) != len(tr.Coflows) || one[0].Coflows[3].Arrival != 900 {
		t.Errorf("infinite window: %d windows, err %v; want one holding the trace as it is", len(one), err)
	}
	early := &Trace{NumRacks: 2, Coflows: []Coflow{{ID: 7, Arrival: -600, Flows: []Flow{{0, 1, 1}}}}}
	if _, err := early.Partition(300); err == nil {
		t.Error("a coflow arriving before the trace start was accepted")
	}
}

func TestCoflowHelpers(t *testing.T) {
	c := Coflow{Flows: []Flow{{0, 1, 5}, {2, 1, 7}}}
	if c.Width() != 2 {
		t.Error("width")
	}
	if c.TotalBytes() != 12 {
		t.Error("total bytes")
	}
}
