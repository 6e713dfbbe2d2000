package main

import (
	"math"
	"math/rand"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may report, lowest
// first. The tail of a sample set is the highest rung that still has
// minBeyond samples above it, so a reported percentile is never an estimate
// resting on a handful of outliers. The ladder stops at p90: on the 2-vCPU
// shared VM the benchmark was sized on, ten runs' p95 of the half-millisecond
// link-recovery path ranged from 1.3 to 4.5 ms (interquartile range equal to
// the median) while their p50 stayed within 9 %, so a p95 could not be held to
// any bound. Higher percentiles are still printed, as information.
var tailLadder = []float64{50, 75, 90}

// printedPercentiles are reported beside the gated median and tail.
var printedPercentiles = []float64{75, 90, 95, 99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// rankOf returns the 1-based nearest-rank index of percentile p among n
// samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least minBeyond
// of the n samples beyond it. With too few samples for any rung above the
// median it returns 50: the tail then reads the same as the median, which is
// the honest answer for a sample that small.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (mean of the two middle values for even
// counts), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencySummary is a latency distribution reduced to what the benchmark
// reports: the median, the tail chosen by tailPercentile, and the counts a
// reader needs to judge them.
type latencySummary struct {
	N       int     // samples, censored ones included
	Failed  int     // samples censored at the timeout
	P50     float64 // same unit as the samples
	Tail    float64
	TailPct float64 // which percentile Tail is
}

// summarize reduces samples to a latencySummary. Censored samples (operations
// that failed or never completed) are passed as failed and enter the
// distribution at censorAt, so a failure counts as exceeding any latency
// bound instead of silently shrinking the sample.
func summarize(samples []float64, failed int, censorAt float64) latencySummary {
	all := sortedCopy(samples)
	for i := 0; i < failed; i++ {
		all = append(all, censorAt)
	}
	sort.Float64s(all)
	s := latencySummary{N: len(all), Failed: failed}
	if len(all) == 0 {
		return s
	}
	s.TailPct = tailPercentile(len(all))
	s.P50 = percentile(all, 50)
	s.Tail = percentile(all, s.TailPct)
	return s
}

// iqrSpread is the benchmark contract's steadiness measure: the distance
// between the first and third quartile as a share of the median, with the
// quartiles computed the way Python's statistics.quantiles(values, n=4)
// does (exclusive method).
func iqrSpread(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th of 4 quantiles, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// newRand is a seeded math/rand source.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
