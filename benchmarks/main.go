// Command benchmarks is the repo's one end-to-end benchmark: it runs one
// workload against the live control plane or the failure-study simulator,
// checks the outputs, and prints every metric by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricOut is one reported metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the contract's result object, printed as the last line of
// standard output.
type driverLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// provenance says where a result came from; compare refuses results whose
// GOMAXPROCS or workload parameters differ.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// fullResult is what -out writes: the driver's line plus everything needed
// to interpret and compare it.
type fullResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Provenance provenance        `json:"provenance"`
	Params     map[string]string `json:"params"`
	Samples    int               `json:"samples"`
	TailPct    float64           `json:"tail_percentile"`
	Info       []info            `json:"info,omitempty"`
	Violations []string          `json:"violations,omitempty"`
	driverLine
}

func readProvenance() provenance {
	p := provenance{GitSHA: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	return p
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (-list names them)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long to measure; the work done is a pure function of this")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans   = flag.String("trace-out", "", "traced run: also write the spans to this file")
		out     = flag.String("out", "", "write the full result (provenance, parameters, metrics) to this file")
		list    = flag.Bool("list", false, "list workloads and metrics, then exit")
		agree   = flag.Bool("agree", false, "run every workload twice over -agree-seeds seeds and fail if two sets of runs disagree beyond a metric's bound")
		seeds   = flag.Int("agree-seeds", 3, "-agree: seeds per set")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments: refuses results whose GOMAXPROCS or workload parameters differ")
		golden  = flag.Bool("update-golden", false, "rewrite golden/golden.json (run from the benchmarks directory)")
		mani    = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it, then exit")
	)
	flag.Parse()
	var err error
	switch {
	case *list:
		printCatalog()
	case *mani:
		err = printManifest(os.Stdout)
	case *compare:
		err = compareFiles(flag.Args())
	case *agree:
		err = agreement(*seed, *seeds, *seconds)
	case *golden:
		err = updateGolden(*seed, *seconds)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *spans, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// runOne runs one workload, prints its metrics, and returns an error — for a
// non-zero exit — on any output-check violation.
func runOne(name string, seed int64, seconds float64, traced bool, spansPath, outPath string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (try -list)", name)
	}
	full := fullResult{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Provenance: readProvenance()}
	full.Metrics = make(map[string]metricOut)
	if traced {
		tr := newTracer()
		res, err := tracedRun(w, seed, seconds, tr)
		if err != nil {
			return err
		}
		full.Attempted, full.Failed, full.Violations = res.Attempted, res.Failed, res.Violations
		for _, d := range perLayer {
			full.Metrics[d.Name] = metricOut{res.Metrics[d.Name], d.Unit}
		}
		if spansPath != "" {
			if err := tr.writeFile(spansPath); err != nil {
				return err
			}
		}
	} else {
		st, err := w.run(seed, seconds)
		if err != nil {
			return err
		}
		if len(st.OpMS) == 0 {
			return fmt.Errorf("%s completed no operation (%d attempted): %s", name, st.Attempted, strings.Join(st.Violations, "; "))
		}
		censored := 0
		if st.CensorMS > 0 {
			censored = st.Failed
		}
		lat := summarize(st.OpMS, censored, st.CensorMS)
		full.Attempted, full.Failed, full.Violations = st.Attempted, st.Failed, st.Violations
		full.Params, full.Info, full.Samples, full.TailPct = st.Params, st.Info, lat.N, lat.TailPct
		full.Info = append(full.Info, info{"cpu_ms_per_op", ms(st.CPU) / float64(len(st.OpMS)), "ms"})
		sorted := sortedCopy(st.OpMS)
		for _, p := range printedPercentiles {
			full.Info = append(full.Info, info{fmt.Sprintf("op_p%g_ms", p), percentile(sorted, p), "ms"})
		}
		for _, d := range endToEnd {
			var v float64
			switch d.Name {
			case "setup_s":
				v = median(st.SetupS)
			case "op_p50_ms":
				v = lat.P50
			case "op_tail_ms":
				v = lat.Tail
			case "peak_rss_mb":
				v = peakRSSMB()
			}
			full.Metrics[d.Name] = metricOut{v, d.Unit}
		}
	}
	full.Correct = len(full.Violations) == 0 && full.Failed == 0
	printResult(w, &full)
	if outPath != "" {
		data, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(full.driverLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !full.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, %d output-check violations", name, full.Failed, full.Attempted, len(full.Violations))
	}
	return nil
}

// printResult prints every metric by name with unit, direction and sample
// count, then provenance and parameters.
func printResult(w *workload, r *fullResult) {
	p := r.Provenance
	dirty := ""
	if p.GitDirty {
		dirty = "+dirty"
	}
	fmt.Printf("workload %s  seed %d  seconds %g  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Printf("  %s\n  %s\n", w.Why, w.Loop)
	fmt.Printf("provenance: git %s%s  %s  nproc %d  GOMAXPROCS %d\n", p.GitSHA, dirty, p.GoVersion, p.NumCPU, p.GOMAXPROCS)
	if len(r.Params) > 0 {
		keys := make([]string, 0, len(r.Params))
		for k := range r.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("parameters:")
		for _, k := range keys {
			fmt.Printf(" %s=%s", k, r.Params[k])
		}
		fmt.Println()
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	} else {
		fmt.Printf("operations: %d attempted, %d failed, %d samples, tail = p%g\n", r.Attempted, r.Failed, r.Samples, r.TailPct)
	}
	for _, d := range defs {
		fmt.Printf("  %-38s %14.4f %-6s (%s is better)\n", d.Name, r.Metrics[d.Name].Value, d.Unit, d.Better)
	}
	for _, in := range r.Info {
		fmt.Printf("  %-38s %14.4f %-6s (informational)\n", in.Name, in.Value, in.Unit)
	}
	for _, v := range r.Violations {
		fmt.Println("VIOLATION:", v)
	}
}

func printCatalog() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-10s %s\n             %s\n", w.Name, w.Why, w.Loop)
	}
	fmt.Println("end-to-end metrics (untraced run):")
	for _, d := range endToEnd {
		fmt.Printf("  %-14s %-4s %s is better, bound %.0f %%: %s\n", d.Name, d.Unit, d.Better, d.Bound*100, d.Doc)
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, d := range perLayer {
		fmt.Printf("  %-38s %-6s %s\n", d.Name, d.Unit, d.Doc)
	}
}
