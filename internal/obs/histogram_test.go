package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketLayout(t *testing.T) {
	// Every bucket's [low, high] range must be consistent with histIndex,
	// and bucket boundaries must tile the value axis without gaps.
	for i := 0; i < histBuckets; i++ {
		low, high := histBucketLow(i), histBucketHigh(i)
		if low > high {
			t.Fatalf("bucket %d: low %d > high %d", i, low, high)
		}
		if got := histIndex(low); got != i {
			t.Fatalf("histIndex(low=%d) = %d, want %d", low, got, i)
		}
		if high != math.MaxInt64 {
			if got := histIndex(high); got != i {
				t.Fatalf("histIndex(high=%d) = %d, want %d", high, got, i)
			}
			if next := histBucketLow(i + 1); next != high+1 {
				t.Fatalf("bucket %d high %d, bucket %d low %d: gap", i, high, i+1, next)
			}
		}
	}
	if histIndex(math.MaxInt64) != histBuckets-1 {
		t.Fatalf("MaxInt64 maps to %d, want last bucket %d", histIndex(math.MaxInt64), histBuckets-1)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1..1000: quantiles must land within one sub-bucket (6.25%) of exact.
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean = %v, want 500.5", got)
	}
	for _, tc := range []struct {
		q     float64
		exact float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0, 1}} {
		got := float64(h.Quantile(tc.q))
		if relErr := math.Abs(got-tc.exact) / tc.exact; relErr > 1.0/histSubCount {
			t.Errorf("q=%v: got %v, exact %v (rel err %.3f > %.3f)",
				tc.q, got, tc.exact, relErr, 1.0/histSubCount)
		}
	}
}

func TestHistogramNegativeAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Record(5)
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 || nilH.Mean() != 0 {
		t.Fatal("nil histogram not inert")
	}

	h := &Histogram{}
	h.Record(-17) // clamps to 0
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative record: count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	const goroutines, per = 8, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total != goroutines*per {
		t.Fatalf("bucket total = %d, want %d", total, goroutines*per)
	}
}

func TestRegistryHistogramAndExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-1)
	h := r.Histogram("fluid.fct_us")
	if h != r.Histogram("fluid.fct_us") {
		t.Fatal("same-name histogram handles differ")
	}
	for v := int64(0); v < 100; v++ {
		h.Record(v)
	}
	ex := r.Export(true)
	if ex.Counters["c"] != 3 || ex.Gauges["g"] != -1 {
		t.Fatalf("export counters/gauges wrong: %+v", ex)
	}
	hs, ok := ex.Histograms["fluid.fct_us"]
	if !ok || hs.Count != 100 || len(hs.Buckets) == 0 {
		t.Fatalf("export histogram wrong: %+v", hs)
	}
	if ex2 := r.Export(false); ex2.Histograms["fluid.fct_us"].Buckets != nil {
		t.Fatal("Export(false) kept buckets")
	}

	var nilR *Registry
	nilR.Histogram("x").Record(1)
	if nilR.Export(true).Counters == nil {
		t.Fatal("nil registry export has nil maps")
	}
}

func TestHistogramSnapshotRender(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 64; v++ {
		h.Record(v)
	}
	out := h.Snapshot().Render("fct (µs)", 20)
	if !strings.Contains(out, "fct (µs)") || !strings.Contains(out, "#") || !strings.Contains(out, "p99=") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
	empty := (&Histogram{}).Snapshot().Render("empty", 20)
	if !strings.Contains(empty, "n=0") {
		t.Fatalf("empty render: %q", empty)
	}
}

func TestRingCountsDrops(t *testing.T) {
	r := NewRing(4)
	reg := NewRegistry()
	ctr := reg.Counter("obs.ring_dropped_events")
	r.CountDropsIn(ctr)
	for i := 0; i < 10; i++ {
		r.Event(NewEvent(KindLog, 0))
	}
	// Capacity 4, 10 writes: the first 4 fill, the next 6 each evict one.
	if got := ctr.Value(); got != 6 {
		t.Fatalf("registry drop counter = %d, want 6", got)
	}
	if got := len(r.Events()); got != 4 {
		t.Fatalf("ring holds %d events, want 4", got)
	}
}
