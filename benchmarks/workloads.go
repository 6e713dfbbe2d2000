package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sharebackup"
	"sharebackup/internal/coflow"
	"sharebackup/internal/sweep"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// Loop says how load is offered.
	Loop string
	// run measures the workload untraced for about the given number of
	// seconds.
	run func(seed int64, seconds float64) (*opStats, error)
}

var workloads = []workload{
	{
		Name: "live-node",
		Why:  "steady node failures, one consensus round each: detection timer, solo propose-commit, apply, CS mirror, publish; batching idle",
		Loop: "open loop, 25 silences/s, latency from each due time",
		run: func(seed int64, seconds float64) (*opStats, error) {
			return runLive(liveNode, count(seconds, 5.12, 1), 0, seed, false, nil)
		},
	},
	{
		Name: "live-storm",
		Why:  "64 switches silenced at one instant: shard scans burst-drain, proposals fold into batch rounds, the result waits for the slowest part",
		Loop: "open loop, 2 bursts of 64 per cluster, latency from the burst instant to its last recovery",
		run: func(seed int64, seconds float64) (*opStats, error) {
			return runLive(liveStorm, count(seconds, 0.68, 2), 0, seed, false, nil)
		},
	},
	{
		Name: "sim-fig1c",
		Why:  "the paper's Fig. 1c study via sharebackup.Fig1c: coflow, ECMP, both rerouting schemes, sweep and fluid on arrivals and completions only; ripple idle",
		Loop: "closed loop, one study at a time, Workers = 1",
		run:  runSimFig1c,
	},
	{
		Name: "sim-storm",
		Why:  "fluid.Simulator driven directly with waves of 512 SetPath reroutes on k=32: ripple verification and certificates work; coflow, sweep, rerouting do none",
		Loop: "closed loop, one storm at a time, SetWorkers(GOMAXPROCS)",
		run:  func(seed int64, seconds float64) (*opStats, error) { return runSimStorm(seed, seconds, nil) },
	},
}

// tracedUnit is a workload's traced variant: spans go to tr and, on the
// steady live units, the program's own trace files are on. A traced run calls
// the unit of the workload under test at the workload's size and every other
// one at probe size, so each layer is measured in every traced run.
//
// live-link is a unit without a workload. Its operation — a link report
// acknowledged through consensus, half a millisecond with no detection timer
// in it — is the number a change to the wire, the poller, the proposer or the
// commit path moves, but on the 2-vCPU sizing VM its median drifted from 0.40
// to 0.64 ms between two sets of ten runs of one commit, more than any bound
// the driver accepts, so it is reported per layer instead of gated.
type tracedUnit struct {
	Name string
	run  func(seed int64, seconds float64, tr *tracer) (*opStats, error)
}

var tracedUnits = []tracedUnit{
	{"live-node", func(seed int64, seconds float64, tr *tracer) (*opStats, error) {
		return runLive(liveNode, count(seconds, 5.12, 1), probeLimit(seconds), seed, true, tr)
	}},
	{"live-link", func(seed int64, seconds float64, tr *tracer) (*opStats, error) {
		return runLive(liveLink, count(seconds, 2.56, 1), probeLimit(seconds), seed, true, tr)
	}},
	{"live-storm", func(seed int64, seconds float64, tr *tracer) (*opStats, error) {
		// No trace files here: the hops come from the steady units, and 64
		// recoveries writing JSONL at once would stretch the burst this unit
		// exists to time.
		return runLive(liveStorm, count(seconds, 0.68, 1), 0, seed, false, tr)
	}},
	{"sim-fig1c", unitSimFig1c},
	{"sim-storm", runSimStorm},
}

// probeSeconds is the size at which a traced run exercises the units it is
// not measuring: one cluster, one storm, one study.
const probeSeconds = 1

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// probeLimit trims a steady epoch to 32 injections when it runs as a probe.
func probeLimit(seconds float64) int {
	if seconds <= probeSeconds {
		return 32
	}
	return 0
}

// count turns a measuring time into a whole number of units of about
// secondsEach, at least min: the work of a run is a pure function of
// --seconds, so two runs of one commit do the same work.
func count(seconds, secondsEach float64, min int) int {
	n := int(math.Round(seconds / secondsEach))
	if n < min {
		n = min
	}
	return n
}

// opStats is what a workload hands back: its operation samples and the
// ingredients of the other end-to-end metrics.
type opStats struct {
	OpMS       []float64 // completed operations
	CensorMS   float64   // latency a failed operation enters the distribution at; 0 = failures carry their measured time
	Attempted  int
	Failed     int
	SetupS     []float64 // one sample per set-up performed
	CPU        time.Duration
	Violations []string
	Info       []info            // printed, not gated
	Params     map[string]string // workload parameters, for provenance and compare

	// refOpMS, when a traced unit sets it, is the untraced reference its
	// operations compare with; otherwise the workload's untraced run is.
	refOpMS []float64

	// Raw unit results, kept for the traced run's per-layer metrics.
	epochs      []*epochResult
	storms      []*stormRun // replays at GOMAXPROCS workers
	stormSerial []*stormRun // traced runs only: the same storms at one worker
	interned    []int       // paths each storm's schedule interned
	fig1c       *fig1cRun   // sharebackup.Fig1c at Workers=1
	staged      []stagedStats
}

// atReferenceSpeed rescales the operation and set-up times the workload
// measured to the reference speed (see calib.go), and records the factor and
// the unscaled median.
func (st *opStats) atReferenceSpeed(p *speedProbe) {
	f := p.factor()
	st.Info = append(st.Info,
		info{"host_speed_factor", f, "x"},
		info{"op_p50_as_measured_ms", median(st.OpMS), "ms"})
	for i := range st.OpMS {
		st.OpMS[i] /= f
	}
	for i := range st.SetupS {
		st.SetupS[i] /= f
	}
}

type info struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type liveKind int

const (
	liveNode liveKind = iota
	liveLink
	liveStorm
)

// liveSchedule is one epoch's injections for the live workload kind.
func liveSchedule(kind liveKind, p liveParams, rng *rand.Rand) []injection {
	switch kind {
	case liveLink:
		return steadySchedule(injLink, p.Agents, 50, rng)
	case liveStorm:
		return stormSchedule(p.K, p.Agents, 2, 250*time.Millisecond, rng)
	default:
		return steadySchedule(injNode, p.Agents, 25, rng)
	}
}

// traceScratch is where traced live epochs put the program's per-process
// trace files; each epoch's directory is removed once stitched.
const traceScratch = ".bench_out"

// maxDiscards is how many epochs a run may replay because the host stalled
// the process (epochResult.MaxStall); past that, epochs count as they are.
const maxDiscards = 3

// runLiveEpochs plays epochs fresh clusters of one kind, each with its own
// sub-seed; limit > 0 keeps only each schedule's first limit injections. An
// epoch during which the whole process was stalled for all but one of the
// keep-alive intervals the detector allows is discarded and replayed on a
// fresh cluster: an agent whose last keep-alive was almost an interval old
// when such a stall began looks dead to a scan that runs before the backlog
// drains, and no detector could tell that from silence.
func runLiveEpochs(kind liveKind, p liveParams, epochs, limit int, seed int64, traced bool, tr *tracer) ([]*epochResult, int, error) {
	var out []*epochResult
	discards := 0
	for e := 0; e < epochs; e++ {
		sched := liveSchedule(kind, p, newRand(sweep.SubSeed(seed, e)))
		if limit > 0 && limit < len(sched) {
			sched = sched[:limit]
		}
		dir := ""
		if traced {
			dir = filepath.Join(traceScratch, fmt.Sprintf("trace-%d-%d-%d", os.Getpid(), kind, e))
		}
		res, err := runLiveEpoch(p, sched, dir, tr, (int(kind)*1000+e)*1000)
		if dir != "" {
			os.RemoveAll(dir)
		}
		if err != nil {
			return nil, discards, err
		}
		if res.MaxStall >= time.Duration(p.Miss-1)*p.Interval && discards < maxDiscards {
			discards++
			e--
			continue
		}
		out = append(out, res)
	}
	return out, discards, nil
}

func runLive(kind liveKind, epochs, limit int, seed int64, traced bool, tr *tracer) (*opStats, error) {
	p := defaultLive()
	results, discards, err := runLiveEpochs(kind, p, epochs, limit, seed, traced, tr)
	if err != nil {
		return nil, err
	}
	st := &opStats{CensorMS: ms(p.Timeout), epochs: results, Params: map[string]string{
		"k": fmt.Sprint(p.K), "n": fmt.Sprint(p.N), "agents": fmt.Sprint(p.Agents),
		"replicas": fmt.Sprint(p.Replicas), "circuit_switches": fmt.Sprint(p.NumCS),
		"keepalive_interval": p.Interval.String(), "miss_threshold": fmt.Sprint(p.Miss),
		"epochs": fmt.Sprint(epochs),
	}}
	var late, window float64
	var maxStall time.Duration
	var lateAll []float64
	falseRec, agents := 0, 0
	for _, r := range results {
		switch kind {
		case liveNode:
			st.OpMS = append(st.OpMS, r.NodeMS...)
		case liveLink:
			st.OpMS = append(st.OpMS, r.LinkMS...)
		case liveStorm:
			st.OpMS = append(st.OpMS, r.BurstMS...)
		}
		st.SetupS = append(st.SetupS, r.Setup.Seconds())
		st.CPU += r.CPU
		st.Violations = append(st.Violations, r.Violations...)
		lateAll = append(lateAll, r.LateUS...)
		window += r.Window.Seconds()
		falseRec += r.FalseRecoveries
		agents += p.Agents
		if r.MaxStall > maxStall {
			maxStall = r.MaxStall
		}
		if kind == liveStorm {
			// A burst is the operation; one that lost a recovery failed.
			st.Attempted += 2
			st.Failed += 2 - len(r.BurstMS)
		} else {
			st.Attempted += r.Attempted
			st.Failed += r.Failed
		}
	}
	late = percentile(sortedCopy(lateAll), 95)
	st.Info = []info{
		{"gen_late_p95_us", late, "us"},
		{"false_recovery_frac", float64(falseRec) / float64(agents), "frac"},
		{"ctl_cpu_frac", st.CPU.Seconds() / window, "cpu-s/s"},
		{"injection_window_s", window, "s"},
		{"epochs_discarded_for_host_stalls", float64(discards), "count"},
		{"longest_host_stall_ms", ms(maxStall), "ms"},
	}
	return st, nil
}

// fig1cRun is one pass over a set of Fig. 1c studies.
type fig1cRun struct {
	Studies []int64
	WallMS  []float64 // per study
	FP      []uint64  // per study: sweep.Fingerprint of the result
}

// pickStudies scans sub-seeds 1, 2, ... and keeps the first n whose 40-coflow
// window routes at most fig1cMaxFlows flows on a k=16 fabric; see
// fig1cMaxFlows for why the set is pinned.
func pickStudies(n int) ([]int64, error) {
	var out []int64
	for s := int64(1); len(out) < n; s++ {
		cfg := fig1cConfig(s, 0)
		tr, err := coflow.Generate(coflow.GenConfig{Racks: cfg.K * cfg.K / 2, NumCoflows: cfg.Coflows, Duration: 300, Seed: s})
		if err != nil {
			return nil, err
		}
		if tr.TotalFlows() <= fig1cMaxFlows {
			out = append(out, s)
		}
	}
	return out, nil
}

// runFig1cStudies runs sharebackup.Fig1c once per study, in order, calling
// before (if not nil) ahead of each.
func runFig1cStudies(studies []int64, workers int, before func()) (*fig1cRun, error) {
	run := &fig1cRun{Studies: studies}
	for _, s := range studies {
		if before != nil {
			before()
		}
		t0 := time.Now()
		res, err := sharebackup.Fig1c(fig1cConfig(s, workers))
		if err != nil {
			return nil, fmt.Errorf("fig1c study %d: %w", s, err)
		}
		run.WallMS = append(run.WallMS, ms(time.Since(t0)))
		fp, err := sweep.Fingerprint(res)
		if err != nil {
			return nil, err
		}
		run.FP = append(run.FP, fp)
	}
	return run, nil
}

func runSimFig1c(seed int64, seconds float64) (*opStats, error) {
	n := count(seconds, 0.375, 2)
	st := &opStats{Params: map[string]string{
		"k": "16", "coflows_per_window": "40", "windows": "1", "scenarios": "2",
		"studies": fmt.Sprint(n), "max_flows": fmt.Sprint(fig1cMaxFlows),
	}}
	// Set-up: choosing the study set and running its first study once as
	// warm-up. Done three times for a steadier median.
	var speed speedProbe
	var studies []int64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if studies, err = pickStudies(n); err != nil {
			return nil, err
		}
		if _, err = runFig1cStudies(studies[:1], 1, nil); err != nil {
			return nil, err
		}
		st.SetupS = append(st.SetupS, time.Since(t0).Seconds())
		speed.sample()
	}
	order := newRand(seed).Perm(n)
	shuffled := make([]int64, n)
	for i, j := range order {
		shuffled[i] = studies[j]
	}
	cpu0 := processCPU()
	// Measured at Workers=1: on the 2-vCPU sizing VM the second vCPU's
	// availability swung a two-worker run's wall time by 35 % between runs of
	// the same commit (spread 24-30 %, against 9-12 % on one worker). The
	// sweep pool's speedup is the traced run's sweep.workers_speedup.
	run, err := runFig1cStudies(shuffled, 1, speed.sample)
	if err != nil {
		return nil, err
	}
	st.CPU = processCPU() - cpu0
	// Last check: the first study on the full worker pool must fingerprint
	// the same as it did on one worker.
	pooled, err := runFig1cStudies(studies[:1], runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return nil, err
	}
	st.fig1c = run
	st.OpMS = append([]float64(nil), run.WallMS...)
	st.Attempted = n
	golden := loadGolden().Fig1c
	var wall float64
	for i, s := range run.Studies {
		wall += run.WallMS[i]
		bad := ""
		if s == pooled.Studies[0] && run.FP[i] != pooled.FP[0] {
			bad = fmt.Sprintf("study %d: fingerprint %x at Workers=1, %x at Workers=%d", s, run.FP[i], pooled.FP[0], runtime.GOMAXPROCS(0))
		} else if want, ok := golden[fmt.Sprint(s)]; ok && want != fmt.Sprintf("%x", run.FP[i]) {
			bad = fmt.Sprintf("study %d: fingerprint %x, golden %s", s, run.FP[i], want)
		}
		if bad != "" {
			st.Failed++
			st.Violations = append(st.Violations, bad)
		}
	}
	st.Info = []info{{"fig1c_scenarios_per_s", float64(n*fig1cReplays) / (wall / 1000), "replays/s"}}
	st.atReferenceSpeed(&speed)
	return st, nil
}

// runSimStorm measures storms at GOMAXPROCS workers; with a tracer it also
// replays each at one worker, for the per-layer speedup.
func runSimStorm(seed int64, seconds float64, tr *tracer) (*opStats, error) {
	p := defaultStorm()
	n := count(seconds, 1.8, 1)
	st := &opStats{Params: map[string]string{
		"k": fmt.Sprint(p.K), "hosts_per_edge": fmt.Sprint(p.HostsPerEdge), "flows_per_host": fmt.Sprint(p.FlowsPerHost),
		"waves": fmt.Sprint(p.Waves), "wave_batch": fmt.Sprint(p.WaveBatch), "instances": fmt.Sprint(n),
	}}
	workers := runtime.GOMAXPROCS(0)
	var events int64
	var inside time.Duration
	var speed speedProbe
	for i := 0; i < n; i++ {
		// Collect the previous storm's garbage outside the timed set-up, so
		// every topology is built on the same heap.
		runtime.GC()
		root := tr.begin("bench.storm_setup", 0, i)
		t0 := time.Now()
		inst, err := buildStorm(p, newRand(sweep.SubSeed(seed, i)), tr, root)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		st.SetupS = append(st.SetupS, time.Since(t0).Seconds())
		st.interned = append(st.interned, inst.interned)
		// The first storm is replayed at one worker before it is measured:
		// warm-up, and the reference its finish times must match bit for bit.
		// A traced run replays the later ones too, after measuring them, so
		// the measured replays see the same cold instance an untraced run's do.
		var serial *stormRun
		if i == 0 {
			if serial, err = replayStorm(inst, 1, nil, 0); err != nil {
				return nil, err
			}
		}
		for j := 0; j < 5; j++ {
			speed.sample()
		}
		root = tr.begin("bench.storm", 0, i)
		cpu0 := processCPU()
		run, err := replayStorm(inst, workers, tr, root)
		if err != nil {
			return nil, err
		}
		st.CPU += processCPU() - cpu0
		tr.end(root)
		if serial == nil && tr != nil {
			if serial, err = replayStorm(inst, 1, nil, 0); err != nil {
				return nil, err
			}
		}
		if serial != nil {
			st.stormSerial = append(st.stormSerial, serial)
		}
		st.storms = append(st.storms, run)
		st.OpMS = append(st.OpMS, run.WaveMS...)
		st.Attempted += len(run.WaveMS)
		events += run.events()
		inside += run.inside()
		if serial != nil {
			bad := ""
			if run.FCTHash != serial.FCTHash {
				bad = fmt.Sprintf("storm %d: finish times hash %x at %d workers, %x at 1", i, run.FCTHash, workers, serial.FCTHash)
			} else if want, ok := loadGolden().Storm[fmt.Sprint(seed)]; i == 0 && ok && want != fmt.Sprintf("%x", run.FCTHash) {
				bad = fmt.Sprintf("storm 0: finish times hash %x, golden %s", run.FCTHash, want)
			}
			if bad != "" {
				st.Failed += len(run.WaveMS)
				st.Violations = append(st.Violations, bad)
			}
		}
	}
	st.Info = []info{{"storm_events_per_s", float64(events) / inside.Seconds(), "events/s"}}
	st.atReferenceSpeed(&speed)
	return st, nil
}

// unitSimFig1c is sim-fig1c's traced variant: the staged re-enactment of
// each study, then sharebackup.Fig1c itself at Workers=1 over the same
// studies, whose fingerprints the staged results must match and whose wall
// time is what the stages have to explain.
func unitSimFig1c(seed int64, seconds float64, tr *tracer) (*opStats, error) {
	n := count(seconds, 1.75, 1) // a study costs about 0.375 s on two workers; here it runs twice on one
	studies, err := pickStudies(n)
	if err != nil {
		return nil, err
	}
	st := &opStats{Attempted: n, Params: map[string]string{"studies": fmt.Sprint(n)}}
	// Fig1c first: it also warms the process up, so the staged pass below is
	// not charged for a cold start the reference did not pay.
	if st.fig1c, err = runFig1cStudies(studies, 1, nil); err != nil {
		return nil, err
	}
	st.refOpMS = st.fig1c.WallMS
	var stagedFP []uint64
	for _, s := range studies {
		t0 := time.Now()
		res, stats, err := stagedFig1c(fig1cConfig(s, 1), tr)
		if err != nil {
			return nil, err
		}
		st.OpMS = append(st.OpMS, ms(time.Since(t0)))
		st.staged = append(st.staged, stats)
		fp, err := sweep.Fingerprint(res)
		if err != nil {
			return nil, err
		}
		stagedFP = append(stagedFP, fp)
	}
	for i, s := range studies {
		if stagedFP[i] != st.fig1c.FP[i] {
			st.Failed++
			st.Violations = append(st.Violations, fmt.Sprintf("study %d: staged re-enactment fingerprints %x, Fig1c %x", s, stagedFP[i], st.fig1c.FP[i]))
		}
	}
	return st, nil
}
