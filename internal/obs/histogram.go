package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Histogram is a lock-free log-linear (HDR-style) histogram of non-negative
// int64 values. Buckets are laid out as histSubCount linear sub-buckets per
// power of two, so the relative quantile error is bounded by
// 1/histSubCount (6.25%) while the value range covers all of int64.
//
// Record is a few atomic adds — safe from any goroutine, cheap enough for
// data-plane sampling — and all methods are nil-safe, so components can hold
// an optional *Histogram (from Registry.Histogram) without guards, exactly
// like Counter and Gauge.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	min   atomic.Int64 // stored as -min so zero value means "unset"

	buckets [histBuckets]atomic.Uint64
}

const (
	// histSubBits sets the sub-bucket resolution: 2^histSubBits linear
	// sub-buckets per octave.
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	// histBuckets covers [0, 2^63): histSubCount unit buckets for values
	// below histSubCount, then histSubCount sub-buckets for each of the
	// remaining 63-histSubBits octaves.
	histBuckets = histSubCount + (63-histSubBits)*histSubCount
)

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	// exp is the MSB position (>= histSubBits); the sub-bucket is the
	// histSubBits bits below it.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(v>>(uint(exp-histSubBits))) - histSubCount
	return histSubCount + (exp-histSubBits)*histSubCount + sub
}

// histBucketLow returns the smallest value mapping to bucket i.
func histBucketLow(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	b := (i - histSubCount) / histSubCount
	sub := (i - histSubCount) % histSubCount
	return int64(histSubCount+sub) << uint(b)
}

// histBucketHigh returns the largest value mapping to bucket i.
func histBucketHigh(i int) int64 {
	if i+1 >= histBuckets {
		return math.MaxInt64
	}
	return histBucketLow(i+1) - 1
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load() // -min, 0 when unset
		if (cur != 0 && -cur <= v) || h.min.CompareAndSwap(cur, -v-1) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns (approximately, within one bucket) the q-quantile of the
// recorded values, q in [0, 1]. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		n := int64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		seen += n
		if seen >= rank {
			// Clamp the bucket answer into the observed range so p0/p100
			// are exact.
			v := histBucketHigh(i)
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			if mn := h.Min(); v < mn {
				v = mn
			}
			return v
		}
	}
	return h.max.Load()
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	m := h.min.Load()
	if m == 0 {
		return 0
	}
	return -m - 1
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// HistogramBucket is one non-empty bucket of a snapshot: Count observations
// in [Low, High].
type HistogramBucket struct {
	Low   int64  `json:"low"`
	High  int64  `json:"high"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, the JSON shape
// /varz serves.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Mean    float64           `json:"mean"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Buckets holds only the
// non-empty buckets, in increasing value order.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{
				Low: histBucketLow(i), High: histBucketHigh(i), Count: n,
			})
		}
	}
	return s
}

// Render draws the snapshot as an ASCII bar chart with one row per non-empty
// bucket plus a quantile footer — the sbtap -hist view.
func (s HistogramSnapshot) Render(title string, width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d, mean=%.1f, min=%d, max=%d)\n", title, s.Count, s.Mean, s.Min, s.Max)
	if s.Count == 0 {
		return b.String()
	}
	var peak uint64
	for _, bk := range s.Buckets {
		if bk.Count > peak {
			peak = bk.Count
		}
	}
	for _, bk := range s.Buckets {
		bar := int(float64(width) * float64(bk.Count) / float64(peak))
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  [%12d, %12d]  %-*s %d\n", bk.Low, bk.High, width, strings.Repeat("#", bar), bk.Count)
	}
	fmt.Fprintf(&b, "  p50=%d p90=%d p99=%d\n", s.P50, s.P90, s.P99)
	return b.String()
}
