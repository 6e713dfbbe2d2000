package sharebackup

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"sharebackup/internal/fluid"
	"sharebackup/internal/obs"
	"sharebackup/internal/sweep"
)

// The end-to-end benchmark pins every Fig. 1c result bit for bit in
// benchmarks/golden/golden.json (study sub-seed -> sweep.Fingerprint in hex),
// but it lives in its own module and tier-1 never runs it. These helpers read
// that file — never write it — so a bit drift in the fluid engine or the
// routing core fails `go test ./...` before it fails the benchmark.

// goldenStudyConfig mirrors benchmarks/sim_fig1c.go's fig1cConfig: the
// fingerprints are only comparable for exactly this configuration.
func goldenStudyConfig(seed int64) Fig1cConfig {
	return Fig1cConfig{K: 16, Seed: seed, Coflows: 40, Scenarios: 2, Windows: 1, Workers: 1}
}

// readGoldenFig1c returns the pinned fingerprints by sub-seed and the
// sub-seeds in ascending order.
func readGoldenFig1c(tb testing.TB) (map[int64]string, []int64) {
	tb.Helper()
	data, err := os.ReadFile("benchmarks/golden/golden.json")
	if err != nil {
		tb.Fatal(err)
	}
	var g struct {
		Fig1c map[string]string `json:"fig1c"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		tb.Fatal(err)
	}
	fps := make(map[int64]string, len(g.Fig1c))
	var seeds []int64
	for k, v := range g.Fig1c {
		s, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			tb.Fatalf("golden.json: study key %q: %v", k, err)
		}
		fps[s] = v
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return fps, seeds
}

// runGoldenStudy runs one pinned study and compares its fingerprint.
func runGoldenStudy(tb testing.TB, seed int64, want string) {
	tb.Helper()
	res, err := Fig1c(goldenStudyConfig(seed))
	if err != nil {
		tb.Fatal(err)
	}
	fp, err := sweep.Fingerprint(res)
	if err != nil {
		tb.Fatal(err)
	}
	if got := fmt.Sprintf("%x", fp); got != want {
		tb.Errorf("Fig. 1c study %d: fingerprint %s, golden.json pins %s", seed, got, want)
	}
}

// TestFig1cGoldenStudies runs three of the benchmark's cheapest pinned
// studies (about a tenth of a second each) against golden.json. The replays
// run under a private telemetry registry, which also checks the fluid
// engine's pass accounting on Fig. 1c's arrivals-and-completions load: every
// rate recomputation is a pass the ripple settled or one it handed to
// component decomposition.
func TestFig1cGoldenStudies(t *testing.T) {
	reg := obs.NewRegistry()
	fluid.SetDefaultTelemetry(fluid.NewTelemetry(reg))
	defer fluid.SetDefaultTelemetry(nil)
	fps, _ := readGoldenFig1c(t)
	for _, seed := range []int64{3, 5, 54} {
		want, ok := fps[seed]
		if !ok {
			t.Fatalf("golden.json pins no study %d", seed)
		}
		runGoldenStudy(t, seed, want)
	}
	count := func(name string) int64 { return reg.Counter(name).Value() }
	all, settled, handed := count("fluid.rate_recomputes"), count("fluid.ripple_passes"), count("fluid.ripple_fallbacks")
	if all == 0 || settled == 0 || all != settled+handed {
		t.Errorf("fluid.rate_recomputes %d != ripple_passes %d + ripple_fallbacks %d", all, settled, handed)
	}
}
