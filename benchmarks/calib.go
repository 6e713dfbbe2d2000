package main

import (
	"sync"
	"time"
)

// The sim workloads are memory-bound, and on the shared 2-vCPU VM the
// benchmark was sized on the memory system's speed drifts with what the
// host's other tenants do: over nine minutes the same forty Fig. 1c studies
// took 15.5 to 19.9 s, and medians of ten runs taken half an hour apart
// differed by 20 %. A dependent-load walk over a 32 MB table tracked that
// drift — dividing by it cut the spread of the study set from 9.5 % to 2.7 %
// and of a storm replay from 11.4 % to 4.9 % — while an arithmetic loop did
// not (7.8 %). So the sim workloads time that walk beside every operation and
// report their times at the reference speed: measured time divided by
// (measured walk time / refStepNS). A change to the repo's code moves the
// operation and not the walk; a slow host moves both.

const (
	refTableEntries = 1 << 23 // 32 MB of uint32: far beyond the caches
	refSteps        = 60_000  // about 8 ms per sample
	// refStepNS is the walk's time per step on the sizing VM when quiet; it
	// only fixes the scale of the reported times.
	refStepNS = 135.0
)

var refTable = sync.OnceValue(func() []uint32 {
	t := make([]uint32, refTableEntries)
	// A full-period LCG step (a = 1 mod 4, c odd, modulus a power of two):
	// one cycle through every entry, in an order no prefetcher follows.
	for i := range t {
		t[i] = uint32((uint64(i)*1664525 + 1013904223) % refTableEntries)
	}
	return t
})

var refSink uint32

// speedProbe collects reference-walk samples over a run.
type speedProbe struct {
	stepNS []float64
	at     uint32
}

// sample walks refSteps dependent loads and records the time per step.
func (p *speedProbe) sample() {
	t := refTable()
	j := p.at
	t0 := time.Now()
	for i := 0; i < refSteps; i++ {
		j = t[j]
	}
	p.stepNS = append(p.stepNS, float64(time.Since(t0).Nanoseconds())/refSteps)
	p.at = j
	refSink += j
}

// factor is how much slower than the reference speed the host ran: the
// median sample over refStepNS. Without samples it is 1.
func (p *speedProbe) factor() float64 {
	if len(p.stepNS) == 0 {
		return 1
	}
	return median(p.stepNS) / refStepNS
}
