package coflow

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// FuzzParse hardens the trace parser against malformed input: it must never
// panic, and anything it accepts must satisfy the trace invariants.
func FuzzParse(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("3 1\n0 0 1 0 1 1:1\n")
	f.Add("")
	f.Add("1 0\n")
	f.Add("150 1\n0 999 3 0 1 2 2 10:5.5 20:0.25\n")
	f.Add("2 1\n0 0 1 0 1 1:1e309\n") // overflow size
	f.Add("2 1\n0 0 1 0 1 1:NaN\n")
	f.Add("2 1\n0 0 1 0 1 1:+Inf\n")
	f.Add("2 1\n0 0 1 0 1 1:1e305\n") // finite size, infinite bytes
	f.Add("2 1\n0 -5 1 0 1 1:1\n")
	f.Add("0 0\n")
	f.Add("-3 0\n")
	f.Add("16 2\n0 0 1 2 1 2:5\n1 5 1 0 1 3:1\n") // a coflow with no cross-rack flow
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted traces are internally consistent.
		if tr.NumRacks <= 0 {
			t.Fatalf("accepted %d racks", tr.NumRacks)
		}
		last := 0.0
		for i := range tr.Coflows {
			c := &tr.Coflows[i]
			if !(c.Arrival >= last) {
				t.Fatalf("arrival %v negative or out of order", c.Arrival)
			}
			last = c.Arrival
			if len(c.Flows) == 0 {
				t.Fatalf("coflow %d has no flow", c.ID)
			}
			for _, fl := range c.Flows {
				if fl.Src < 0 || fl.Src >= tr.NumRacks || fl.Dst < 0 || fl.Dst >= tr.NumRacks {
					t.Fatalf("flow endpoint out of range: %+v", fl)
				}
				if fl.Src == fl.Dst {
					t.Fatal("rack-local flow survived parsing")
				}
				if !(fl.Bytes > 0) || math.IsInf(fl.Bytes, 1) {
					t.Fatalf("flow bytes %v not positive and finite", fl.Bytes)
				}
			}
		}
	})
}

// FuzzGenerate drives the generator with arbitrary parameters on small
// fabrics, and partitions what it yields by an arbitrary window. Generate
// either refuses the config or yields a well-formed trace; Partition either
// refuses the window or keeps every coflow exactly once. A NaN duration once
// yielded NaN arrivals, and a NaN or tiny window panicked in makeslice.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(20), uint8(10), 100.0, int64(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 30.0)
	f.Add(uint8(5), uint8(3), math.NaN(), int64(2), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
	f.Add(uint8(5), uint8(3), 60.0, int64(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.NaN())
	f.Add(uint8(5), uint8(3), 60.0, int64(4), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-300)
	f.Add(uint8(3), uint8(2), 1.0, int64(5), 1e6, 0.1, -1e6, 0.1, 1000.0, 0.1, math.Inf(1))
	f.Fuzz(func(t *testing.T, racks, coflows uint8, duration float64, seed int64,
		mMean, mStd, rMean, rStd, sMean, sStd, window float64) {
		cfg := GenConfig{
			Racks: 2 + int(racks%30), NumCoflows: 1 + int(coflows%20), Duration: duration, Seed: seed,
			MapperLogMean: mMean, MapperLogStd: mStd, ReducerLogMean: rMean, ReducerLogStd: rStd,
			SizeLogMeanMB: sMean, SizeLogStdMB: sStd,
		}
		tr, err := Generate(cfg)
		if err != nil {
			return
		}
		if duration == 0 {
			duration = 3600 // the default
		}
		if len(tr.Coflows) != cfg.NumCoflows || tr.NumRacks != cfg.Racks {
			t.Fatalf("%d coflows on %d racks, want %d on %d", len(tr.Coflows), tr.NumRacks, cfg.NumCoflows, cfg.Racks)
		}
		for i := range tr.Coflows {
			c := &tr.Coflows[i]
			if !(c.Arrival >= 0 && c.Arrival < duration) {
				t.Fatalf("coflow %d arrives at %v, outside [0, %v)", c.ID, c.Arrival, duration)
			}
			if len(c.Flows) == 0 {
				t.Fatalf("coflow %d has no flow", c.ID)
			}
			for _, fl := range c.Flows {
				if fl.Src < 0 || fl.Src >= tr.NumRacks || fl.Dst < 0 || fl.Dst >= tr.NumRacks {
					t.Fatalf("flow endpoint out of range: %+v", fl)
				}
				if fl.Src == fl.Dst {
					t.Fatalf("rack-local flow: %+v", fl)
				}
				if !(fl.Bytes > 0) || math.IsInf(fl.Bytes, 1) {
					t.Fatalf("flow bytes %v not positive and finite", fl.Bytes)
				}
			}
		}
		windows, err := tr.Partition(window)
		if err != nil {
			return
		}
		seen := make([]int, len(tr.Coflows)) // IDs are 0..NumCoflows-1
		for _, w := range windows {
			for _, c := range w.Coflows {
				seen[c.ID]++
			}
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("window %v: coflow %d kept %d times", window, id, n)
			}
		}
	})
}

// TestQuickGenerateFormatParse: for random generator configs, the generated
// trace round-trips through Format/Parse preserving coflow count, arrivals
// (to ms precision), and total bytes.
func TestQuickGenerateFormatParse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := GenConfig{
			Racks:      2 + r.Intn(40),
			NumCoflows: 1 + r.Intn(25),
			Duration:   1 + r.Float64()*500,
			Seed:       seed,
		}
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tr.Format(&buf); err != nil {
			return false
		}
		back, err := Parse(&buf)
		if err != nil {
			return false
		}
		if len(back.Coflows) != len(tr.Coflows) || back.NumRacks != tr.NumRacks {
			return false
		}
		for i := range tr.Coflows {
			a, b := tr.Coflows[i].TotalBytes(), back.Coflows[i].TotalBytes()
			if a <= 0 {
				return false
			}
			rel := (a - b) / a
			if rel < 0 {
				rel = -rel
			}
			// %g formatting plus ms-truncated arrivals: generous
			// tolerance, but bytes must essentially survive.
			if rel > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
