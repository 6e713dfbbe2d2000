package sharebackup

import (
	"fmt"
	"math"
	"testing"

	"sharebackup/internal/coflow"
	"sharebackup/internal/failure"
	"sharebackup/internal/sweep"
	"sharebackup/internal/topo"
)

// fig1cReplayEverything is the reference Fig1c is checked against: every
// architecture routes and simulates its own window baselines, every scenario
// is replayed through the fluid simulator whether or not a route moved, and
// the affected coflows are found by rescanning the flow list per coflow.
// Serial, and deliberately naive.
func fig1cReplayEverything(in *fig1cInputs, cfg Fig1cConfig) ([]ArchSlowdowns, error) {
	archs := []struct {
		name   string
		ft     *topo.FatTree
		scheme rerouteScheme
	}{
		{"fat-tree", in.ft, schemeGlobalOptimal},
		{"F10", in.f10, schemeF10Local},
		{"ShareBackup", in.ft, schemeShareBackup},
	}
	var out []ArchSlowdowns
	for _, a := range archs {
		res := ArchSlowdowns{Name: a.name}
		routed := make([][]flowRef, len(in.windows))
		baselines := make([][]float64, len(in.windows))
		for wi, tr := range in.windows {
			var err error
			if routed[wi], err = routeTrace(a.ft, tr, cfg.Seed); err != nil {
				return nil, err
			}
			if baselines[wi], err = simulateCCT(a.ft, tr, routed[wi]); err != nil {
				return nil, err
			}
		}
		for si, sc := range in.scenarios {
			wi := si % len(in.windows)
			tr, flows, baseline := in.windows[wi], routed[wi], baselines[wi]
			blocked := sc.Blocked()
			rerouted, _, _ := applyScheme(a.ft, flows, blocked, a.scheme)
			cct, err := simulateCCT(a.ft, tr, rerouted)
			if err != nil {
				return nil, err
			}
			for ci := range tr.Coflows {
				affected, disconnected := false, false
				for i, f := range flows {
					if f.coflow == ci && !blocked.PathOK(f.path) {
						affected = true
						if len(rerouted[i].path.Nodes) == 0 {
							disconnected = true
						}
					}
				}
				switch {
				case !affected:
				case disconnected || math.IsInf(cct[ci], 1):
					res.Disconnected++
				case baseline[ci] > 0:
					res.Slowdowns = append(res.Slowdowns, cct[ci]/baseline[ci])
				}
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// TestFig1cEqualsReplayEverything pins the replay reuse: Fig1c, which
// simulates only the replays whose routes differ from an already simulated
// one, must return bit-identical results to the reference that simulates all
// 3 x (1+S) of them — for every worker count, and including a scenario no
// flow crosses (every scheme reuses its baseline) and one that fails an edge
// switch (the rerouting schemes disconnect the rack's coflows).
func TestFig1cEqualsReplayEverything(t *testing.T) {
	for _, k := range []int{4, 8} {
		for _, nWin := range []int{1, 3} {
			for _, nScen := range []int{2, 12} {
				name := fmt.Sprintf("k%d_w%d_s%d", k, nWin, nScen)
				t.Run(name, func(t *testing.T) {
					// The generator is heavy-tailed; take the first seed whose
					// trace is light enough to replay some sixty times here.
					cfg := Fig1cConfig{K: k, Coflows: 5, Scenarios: nScen, Windows: nWin}
					cfg.setDefaults()
					var in *fig1cInputs
					for cfg.Seed = 1; ; cfg.Seed++ {
						var err error
						if in, err = newFig1cInputs(cfg); err != nil {
							t.Fatal(err)
						}
						flows := 0
						for _, w := range in.windows {
							flows += w.TotalFlows()
						}
						if flows <= 300*nWin {
							break
						}
					}
					addHandMadeScenarios(t, in, cfg)
					want, err := fig1cReplayEverything(in, cfg)
					if err != nil {
						t.Fatal(err)
					}
					wantFP, err := sweep.Fingerprint(want)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						cfg.Workers = workers
						got, err := in.run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						gotFP, err := sweep.Fingerprint(got)
						if err != nil {
							t.Fatal(err)
						}
						if gotFP != wantFP {
							t.Errorf("workers=%d: fingerprint %x, reference %x\n got %+v\nwant %+v", workers, gotFP, wantFP, got, want)
						}
						for _, a := range got {
							if a.Name != "ShareBackup" {
								continue
							}
							if len(a.Slowdowns) == 0 || a.Disconnected != 0 {
								t.Errorf("workers=%d: ShareBackup measured %d coflows, %d disconnected", workers, len(a.Slowdowns), a.Disconnected)
							}
							for _, s := range a.Slowdowns {
								if s != 1 {
									t.Errorf("workers=%d: ShareBackup slowdown %v, want exactly 1", workers, s)
								}
							}
						}
					}
					// The edge-switch scenario must actually disconnect a
					// coflow under rerouting, or the case is not covered.
					if want[0].Disconnected == 0 {
						t.Errorf("fat-tree: edge-switch failure disconnected no coflow")
					}
				})
			}
		}
	}
}

// addHandMadeScenarios extends the sampled inputs with the two cases single
// fabric failures on a dense generated window never produce: an edge-switch
// failure on a rack that is sending (no equal-cost path survives, so the
// rerouting schemes leave its coflow disconnected), and a failed link that no
// flow crosses on either topology (no route moves under any scheme). The
// second needs idle fabric, so it lands on an appended two-flow window.
func addHandMadeScenarios(t *testing.T, in *fig1cInputs, cfg Fig1cConfig) {
	t.Helper()
	racks := in.ft.NumHosts()
	sparse := &coflow.Trace{NumRacks: racks, Coflows: []coflow.Coflow{{
		Flows: []coflow.Flow{{Src: 0, Dst: racks - 1, Bytes: 1e6}, {Src: 1, Dst: 2, Bytes: 2e6}},
	}}}
	in.windows = append(in.windows, sparse)
	nWin := len(in.windows)

	flows, err := routeTrace(in.ft, in.windows[len(in.scenarios)%nWin], cfg.Seed)
	if err != nil || len(flows) == 0 {
		t.Fatalf("no routed flows in the edge-switch scenario's window (err %v)", err)
	}
	in.scenarios = append(in.scenarios, failure.Scenario{Node: flows[0].path.Nodes[1], Link: topo.NoLink, Repair: fig1cWindow})

	// Repeat the first scenario until the next slot lands on the sparse
	// window, then fail a link its flows leave idle.
	for len(in.scenarios)%nWin != nWin-1 {
		in.scenarios = append(in.scenarios, in.scenarios[0])
	}
	used := make(map[topo.LinkID]bool)
	for _, ft := range []*topo.FatTree{in.ft, in.f10} {
		flows, err := routeTrace(ft, sparse, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			for _, l := range f.path.Links {
				used[l] = true
			}
		}
	}
	for _, l := range in.ft.SwitchLinkIDs() {
		if !used[l] {
			in.scenarios = append(in.scenarios, failure.Scenario{Node: topo.None, Link: l, Repair: fig1cWindow})
			return
		}
	}
	t.Fatal("the sparse window leaves no fabric link idle")
}
