package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"

	"sharebackup/internal/sweep"
)

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction: positive means b regressed.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// incomparable reports why two results must not be compared, or "".
func incomparable(a, b *fullResult) string {
	switch {
	case a.Workload != b.Workload:
		return fmt.Sprintf("different workloads: %s and %s", a.Workload, b.Workload)
	case a.Traced != b.Traced:
		return "one result is traced, the other is not"
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("different measuring times: %g s and %g s", a.Seconds, b.Seconds)
	case a.Provenance.GOMAXPROCS != b.Provenance.GOMAXPROCS:
		return fmt.Sprintf("different GOMAXPROCS: %d and %d", a.Provenance.GOMAXPROCS, b.Provenance.GOMAXPROCS)
	case !reflect.DeepEqual(a.Params, b.Params):
		return fmt.Sprintf("different workload parameters: %v and %v", a.Params, b.Params)
	}
	return ""
}

// compareFiles prints, for two -out files of untraced runs, each end-to-end
// metric's change and whether it is beyond the metric's bound. One pair of
// runs is a reading, not a verdict: a claim needs the paired runs the
// choosing-metrics guide describes.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(paths))
	}
	var rs [2]fullResult
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if why := incomparable(&rs[0], &rs[1]); why != "" {
		return fmt.Errorf("refusing to compare: %s", why)
	}
	defs := endToEnd
	if rs[0].Traced {
		defs = perLayer
	}
	fmt.Printf("%s: %s (%s) -> %s (%s)\n", rs[0].Workload, paths[0], rs[0].Provenance.GitSHA, paths[1], rs[1].Provenance.GitSHA)
	for _, d := range defs {
		a, b := rs[0].Metrics[d.Name].Value, rs[1].Metrics[d.Name].Value
		w := worsening(d, a, b)
		verdict := ""
		if d.Bound > 0 && w > d.Bound {
			verdict = fmt.Sprintf("  WORSE by more than the %.0f %% bound", d.Bound*100)
		}
		fmt.Printf("  %-38s %14.4f -> %14.4f %-6s %+7.1f %% worse%s\n", d.Name, a, b, d.Unit, w*100, verdict)
	}
	return nil
}

// runChild runs this binary once as its own process — peak RSS is per
// process, so repeated runs must not share one — and decodes the result line.
func runChild(workloadName string, seed int64, seconds float64) (*driverLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workloadName, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workloadName, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res driverLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workloadName, seed, err)
	}
	return &res, nil
}

// agreement runs every workload twice over the same seed set on the same
// code and fails if, for any end-to-end metric, the second set's median is
// worse than the first's by more than the metric's bound, or any run failed
// an operation. It also prints each set's spread, the contract's steadiness
// measure.
func agreement(seed int64, seeds int, seconds float64) error {
	var bad []string
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < seeds; i++ {
				res, err := runChild(w.Name, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed > 0 {
					bad = append(bad, fmt.Sprintf("%s seed %d: %d of %d operations failed", w.Name, seed+int64(i), res.Failed, res.Attempted))
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (%d seeds per set)\n", w.Name, seeds)
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			gap := worsening(d, a, b)
			fmt.Printf("  %-14s %12.4f %12.4f %-4s gap %+6.1f %% (bound %2.0f %%)  spread %4.1f %% / %4.1f %%\n",
				d.Name, a, b, d.Unit, gap*100, d.Bound*100, iqrSpread(sets[0][d.Name])*100, iqrSpread(sets[1][d.Name])*100)
			if gap > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: second set worse by %.1f %%, bound %.0f %%", w.Name, d.Name, gap*100, d.Bound*100))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("agreement failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("agreement: every end-to-end metric repeats within its bound")
	return nil
}

// updateGolden recomputes the sim workloads' expected outputs at Workers=1
// and writes golden/golden.json.
func updateGolden(seed int64, seconds float64) error {
	g := goldenSet{Fig1c: map[string]string{}, Storm: map[string]string{}}
	studies, err := pickStudies(count(seconds, 0.375, 2))
	if err != nil {
		return err
	}
	run, err := runFig1cStudies(studies, 1, nil)
	if err != nil {
		return err
	}
	for i, s := range studies {
		g.Fig1c[fmt.Sprint(s)] = fmt.Sprintf("%x", run.FP[i])
	}
	inst, err := buildStorm(defaultStorm(), newRand(sweep.SubSeed(seed, 0)), nil, 0)
	if err != nil {
		return err
	}
	storm, err := replayStorm(inst, 1, nil, 0)
	if err != nil {
		return err
	}
	g.Storm[fmt.Sprint(seed)] = fmt.Sprintf("%x", storm.FCTHash)
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden/golden.json", append(data, '\n'), 0o644)
}
