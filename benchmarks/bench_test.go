package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {10000, 90},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n-rankOf(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, c.n-rankOf(p, c.n))
		}
	}
}

func TestSummarizeCountsFailuresAgainstTheBound(t *testing.T) {
	samples := make([]float64, 180)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..180 ms
	}
	s := summarize(samples, 20, 1000)
	if s.N != 200 || s.Failed != 20 || s.TailPct != 90 {
		t.Fatalf("summary %+v, want 200 samples, 20 failed, p90", s)
	}
	if s.P50 != 100 {
		t.Errorf("p50 = %v, want 100", s.P50)
	}
	// Rank 180 of 200 is the last completed sample; one more failure would
	// push the tail to the timeout.
	if s.Tail != 180 {
		t.Errorf("tail = %v, want 180", s.Tail)
	}
	if got := summarize(samples[:179], 21, 1000).Tail; got != 1000 {
		t.Errorf("tail with 21 failures of 200 = %v, want the 1000 ms censoring value", got)
	}
}

func TestIQRSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 10.5, 9.5, 10.2, 9.9], n=4) == [9.7, 10.0, 10.35]
	if got := iqrSpread([]float64{10, 10.5, 9.5, 10.2, 9.9}); math.Abs(got-0.065) > 1e-9 {
		t.Errorf("iqrSpread = %v, want 0.065", got)
	}
}

func TestLatencyIsTimedFromTheDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	issued := due.Add(5 * time.Millisecond) // the generator ran late
	done := issued.Add(10 * time.Millisecond)
	if got, ok := latencyFromDue(due, issued, done, time.Second); !ok || got != 15*time.Millisecond {
		t.Errorf("latency = %v, %v; want 15ms from the due time", got, ok)
	}
	if _, ok := latencyFromDue(due, issued, time.Time{}, time.Second); ok {
		t.Error("an injection that never completed must fail")
	}
	if _, ok := latencyFromDue(due, issued, due.Add(time.Millisecond), time.Second); ok {
		t.Error("a recovery before the injection was issued is a false recovery, not a completion")
	}
	if _, ok := latencyFromDue(due, issued, due.Add(1001*time.Millisecond), time.Second); ok {
		t.Error("a completion past the timeout must fail")
	}
}

func TestSteadyScheduleIsOpenLoopAndSeeded(t *testing.T) {
	const agents, rate = 128, 25.0
	a := steadySchedule(injNode, agents, rate, newRand(7))
	b := steadySchedule(injNode, agents, rate, newRand(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, steadySchedule(injNode, agents, rate, newRand(8))) {
		t.Fatal("different seeds gave the same schedule")
	}
	gap := time.Duration(float64(time.Second) / rate)
	seen := make(map[int]bool)
	for i, in := range a {
		if seen[in.Agent] {
			t.Fatalf("agent %d scheduled twice", in.Agent)
		}
		seen[in.Agent] = true
		if i > 0 {
			if d := in.Due - a[i-1].Due; d < gap/2 || d > gap*3/2 {
				t.Fatalf("injections %d and %d are %v apart, want within half a gap of %v", i-1, i, d, gap)
			}
		}
	}
	if len(seen) != agents {
		t.Fatalf("%d agents scheduled, want %d", len(seen), agents)
	}
}

func TestStormScheduleHitsEveryGroupEqually(t *testing.T) {
	const k, agents, bursts = 16, 128, 2
	sched := stormSchedule(k, agents, bursts, 250*time.Millisecond, newRand(3))
	if len(sched) != agents {
		t.Fatalf("%d injections, want %d", len(sched), agents)
	}
	perBurstPod := make(map[[2]int]int)
	seen := make(map[int]bool)
	for _, in := range sched {
		if seen[in.Agent] {
			t.Fatalf("agent %d silenced twice", in.Agent)
		}
		seen[in.Agent] = true
		if in.Due != time.Duration(in.Burst)*250*time.Millisecond {
			t.Fatalf("burst %d member due at %v", in.Burst, in.Due)
		}
		perBurstPod[[2]int{in.Burst, in.Agent % k}]++
	}
	for key, n := range perBurstPod {
		if n != agents/k/bursts {
			t.Fatalf("burst %d takes %d switches from pod %d's failure group, want %d", key[0], n, key[1], agents/k/bursts)
		}
	}
}

// The controller halts recovery when one circuit switch collects more than 3
// link reports within a second. A live-link epoch must stay under that at any
// rate, so every circuit switch may be named at most 3 times per epoch.
func TestLinkReportsNeverTripTheCircuitSwitchThreshold(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		half := k / 2
		agents := k * half
		type cs struct{ pod, upPort int }
		reports := make(map[cs]int)
		aggs := make(map[[2]int]bool)
		for a := 0; a < agents; a++ {
			lt := linkTargetOf(k, a)
			if lt.AggSlot != (lt.Slot+lt.UpPort)%half {
				t.Fatalf("k=%d agent %d: up-port %d of edge slot %d does not reach agg slot %d", k, a, lt.UpPort, lt.Slot, lt.AggSlot)
			}
			if aggs[[2]int{lt.Pod, lt.AggSlot}] {
				t.Fatalf("k=%d: agg slot %d of pod %d named by two reports", k, lt.AggSlot, lt.Pod)
			}
			aggs[[2]int{lt.Pod, lt.AggSlot}] = true
			reports[cs{lt.Pod, lt.UpPort}]++
		}
		for c, n := range reports {
			if n > 3 {
				t.Fatalf("k=%d: circuit switch CS(2,%d,%d) named by %d reports in one epoch", k, c.pod, c.upPort, n)
			}
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", N: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fluid.run", N: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "fluid.run", N: 1, Start: 20, End: 50},        // overlaps span 2
		{ID: 4, Parent: 1, Name: "routing.pathfor", N: 5, Start: 90, End: 120}, // outlives the parent
		{ID: 5, Parent: 3, Name: "topo.paths", N: 1, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	byLayer := totalsBy(spans, span.layer)
	if got := byLayer["fluid"]; got.Spans != 2 || got.Self != 40 || got.Total != 50 {
		t.Errorf("fluid totals %+v, want 2 spans, self 40, total 50", got)
	}
	if got := totalsBy(spans, func(s span) string { return s.Name })["routing.pathfor"].perCallNS(); got != 6 {
		t.Errorf("per-call time of a 30 ns span covering 5 calls = %v, want 6", got)
	}
}

func TestNilTracerIsTheUntracedRun(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", 0, -1)
	tr.endN(id, 3)
	tr.add("x.z", id, -1, 0, 1)
	if id != 0 || tr.count() != 0 || len(tr.snapshot()) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestCompareRefusesDifferentMachinesAndParameters(t *testing.T) {
	base := fullResult{Workload: "live-node", Seconds: 15, Provenance: provenance{GOMAXPROCS: 2}, Params: map[string]string{"epochs": "3"}}
	same := base
	if why := incomparable(&base, &same); why != "" {
		t.Fatalf("identical set-ups refused: %s", why)
	}
	procs := base
	procs.Provenance.GOMAXPROCS = 8
	params := base
	params.Params = map[string]string{"epochs": "4"}
	traced := base
	traced.Traced = true
	for name, other := range map[string]fullResult{"GOMAXPROCS": procs, "parameters": params, "traced": traced} {
		if incomparable(&base, &other) == "" {
			t.Errorf("results differing in %s were accepted for comparison", name)
		}
	}
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if w := worsening(lower, 100, 110); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110 worsened by %v, want 0.10", w)
	}
	if w := worsening(higher, 100, 110); math.Abs(w+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 110 worsened by %v, want -0.10", w)
	}
}

// BENCHMARK.json is generated from the catalogue (`-manifest`); this keeps the
// committed file in step and inside the driver's limits.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range append(got.EndToEnd, got.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the driver's limits", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range got.PerLayer {
		check(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s must not carry a bound", m.Name)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
}

func TestSpeedProbeScalesByTheMedianSample(t *testing.T) {
	var p speedProbe
	if f := p.factor(); f != 1 {
		t.Errorf("factor without samples = %v, want 1", f)
	}
	p.stepNS = []float64{refStepNS * 1.2, refStepNS * 1.1, refStepNS * 5} // one sample hit by a hiccup
	if f := p.factor(); math.Abs(f-1.2) > 1e-12 {
		t.Errorf("factor = %v, want the median sample over the reference, 1.2", f)
	}
	st := opStats{OpMS: []float64{120, 240}, SetupS: []float64{0.6}}
	st.atReferenceSpeed(&p)
	if math.Abs(st.OpMS[0]-100) > 1e-9 || math.Abs(st.OpMS[1]-200) > 1e-9 || math.Abs(st.SetupS[0]-0.5) > 1e-9 {
		t.Errorf("times at reference speed = %v, %v; want [100 200], [0.5]", st.OpMS, st.SetupS)
	}
}

func TestWorkIsAPureFunctionOfSeconds(t *testing.T) {
	if count(15, 5.12, 1) != 3 || count(15, 0.68, 2) != 22 || count(1, 5.12, 1) != 1 || count(0.2, 0.68, 2) != 2 {
		t.Error("count does not round seconds to whole units with a floor")
	}
}
