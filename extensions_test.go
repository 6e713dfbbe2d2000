package sharebackup

import (
	"fmt"
	"strings"
	"testing"

	"sharebackup/internal/emu"
	"sharebackup/internal/sbnet"
)

func TestExtensionStudy(t *testing.T) {
	rows, err := ExtensionStudy(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	uniform, jelly := rows[0], rows[1]
	if uniform.Groups != 10 { // 5k/2 at k=4
		t.Errorf("uniform groups = %d", uniform.Groups)
	}
	if uniform.MaxCSPorts != 4/2+1+2 {
		t.Errorf("uniform max CS ports = %d, want k/2+n+2", uniform.MaxCSPorts)
	}
	if jelly.Switches < 20 {
		t.Errorf("jellyfish study too small: %d switches", jelly.Switches)
	}
	// Every Jellyfish switch carries hosts, so the same overflow weighs more.
	if jelly.WeightedRisk <= uniform.WeightedRisk {
		t.Errorf("jellyfish weighted risk %v, want above the fat-tree's %v", jelly.WeightedRisk, uniform.WeightedRisk)
	}
	// A row that prints what another prints measures nothing of its own.
	tbl := RenderExtensionStudy(rows)
	seen := map[string]int{}
	for i, r := range tbl.Rows {
		nums := fmt.Sprint(r[1:])
		if j, dup := seen[nums]; dup {
			t.Errorf("plan rows %d and %d print the same numbers %s", j, i, nums)
		}
		seen[nums] = i
	}
	if out := tbl.String(); !strings.Contains(out, "jellyfish") {
		t.Errorf("rendering missing plans:\n%s", out)
	}
}

func TestAugmentationStudy(t *testing.T) {
	row, err := AugmentationStudy(4)
	if err != nil {
		t.Fatal(err)
	}
	if row.Pods != 4 {
		t.Errorf("pods augmented = %d, want every pod", row.Pods)
	}
	if row.FabricLinksAdded != 2 { // k/2
		t.Errorf("fabric links per pod = %d, want k/2", row.FabricLinksAdded)
	}
	if row.FailoverPods != row.Pods {
		t.Errorf("failover works in %d of %d pods", row.FailoverPods, row.Pods)
	}
}

// TestAugmentationCarriesNoHostTraffic is the Section 6 finding on idle
// backups: with every pod's idle pair activated, no host pair's packets
// visit an augmented backup, and every logical path is the one the
// un-augmented network takes. The links the pairs add are fabric no host
// reaches under two-level routing.
func TestAugmentationCarriesNoHostTraffic(t *testing.T) {
	for _, k := range []int{4, 6} {
		plainSys, err := New(Config{K: k, N: 1})
		if err != nil {
			t.Fatal(err)
		}
		augSys, err := New(Config{K: k, N: 1})
		if err != nil {
			t.Fatal(err)
		}
		plain, augmented := plainSys.Network, augSys.Network
		busy := map[sbnet.SwitchID]bool{}
		for pod := 0; pod < k; pod++ {
			aug, err := augmented.ActivateIdleBackups(pod)
			if err != nil {
				t.Fatal(err)
			}
			busy[aug.EdgeSw], busy[aug.AggSw] = true, true
		}
		base, err := emu.New(plain)
		if err != nil {
			t.Fatal(err)
		}
		em, err := emu.New(augmented)
		if err != nil {
			t.Fatal(err)
		}
		var hosts []emu.Host
		for pod := 0; pod < k; pod++ {
			for rack := 0; rack < k/2; rack++ {
				for pos := 0; pos < k/2; pos++ {
					hosts = append(hosts, emu.Host{Pod: pod, Rack: rack, Pos: pos})
				}
			}
		}
		for _, src := range hosts {
			for _, dst := range hosts {
				want, err := base.Deliver(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				walk, err := em.Deliver(src, dst)
				if err != nil {
					t.Fatalf("k=%d %+v -> %+v: %v", k, src, dst, err)
				}
				for _, h := range walk {
					if busy[h.Switch] {
						t.Fatalf("k=%d %+v -> %+v visits augmented backup %s", k, src, dst, augmented.Name(h.Switch))
					}
				}
				if !base.Fingerprint(want).Equal(em.Fingerprint(walk)) {
					t.Fatalf("k=%d %+v -> %+v: logical path changed by the augmentation", k, src, dst)
				}
			}
		}
	}
}
