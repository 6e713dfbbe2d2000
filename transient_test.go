package sharebackup

import (
	"math"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/sweep"
)

// TestTransientConfigRejectsBadFields: a flow size that is not positive and
// finite, or a failure time outside (0, 1) of the baseline, is an error naming
// the field.
func TestTransientConfigRejectsBadFields(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   TransientConfig
	}{
		{"FlowBytes", TransientConfig{FlowBytes: -1}},
		{"FlowBytes", TransientConfig{FlowBytes: math.NaN()}},
		{"FlowBytes", TransientConfig{FlowBytes: math.Inf(1)}},
		{"FailAfter", TransientConfig{FailAfter: -1}},
		{"FailAfter", TransientConfig{FailAfter: 1}},
		{"FailAfter", TransientConfig{FailAfter: 1e9}},
		{"FailAfter", TransientConfig{FailAfter: math.Inf(1)}},
		{"FailAfter", TransientConfig{FailAfter: math.NaN()}},
	} {
		c.cfg.K, c.cfg.Seed = 4, 1
		_, err := TransientStudy(c.cfg)
		if err == nil || !strings.Contains(err.Error(), "TransientConfig."+c.field) {
			t.Errorf("%+v: err = %v, want one naming %s", c.cfg, err, c.field)
		}
	}
}

func TestTransientStudy(t *testing.T) {
	rows, err := TransientStudy(TransientConfig{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TransientRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	sb := byName["ShareBackup"]
	ftRow := byName["fat-tree"]
	f10 := byName["F10"]

	// Nobody is permanently disconnected by a single agg failure.
	for _, r := range rows {
		if r.Disconnected != 0 {
			t.Errorf("%s: %d flows disconnected", r.Scheme, r.Disconnected)
		}
		if r.MaxSlowdown < 1-1e-9 {
			t.Errorf("%s: max slowdown %v < 1", r.Scheme, r.MaxSlowdown)
		}
	}

	// ShareBackup's only penalty is the sub-2ms recovery gap: with ~13s
	// flows the worst slowdown must be within a 0.1% of 1.
	if sb.Gap > 2*time.Millisecond {
		t.Errorf("ShareBackup gap = %v", sb.Gap)
	}
	if sb.MaxSlowdown > 1.001 {
		t.Errorf("ShareBackup max slowdown = %v; the recovery window should be invisible", sb.MaxSlowdown)
	}

	// Rerouting's penalty is lasting bandwidth loss: the worst-hit flow
	// must be clearly slower than anything ShareBackup shows.
	if ftRow.MaxSlowdown <= sb.MaxSlowdown {
		t.Errorf("fat-tree max slowdown %v not worse than ShareBackup %v", ftRow.MaxSlowdown, sb.MaxSlowdown)
	}
	if f10.MaxSlowdown <= sb.MaxSlowdown {
		t.Errorf("F10 max slowdown %v not worse than ShareBackup %v", f10.MaxSlowdown, sb.MaxSlowdown)
	}

	if !strings.Contains(sb.String(), "ShareBackup") {
		t.Error("row rendering broken")
	}
}

// TestTransientTable3Golden pins every bit of the k=8 transient study and
// Table 3. Both admit an all-to-all set at one instant, the fluid engine's
// largest simultaneous arrival; the tests above check only their qualitative
// shape. The fingerprints hash each row's JSON encoding, which spells every
// float exactly.
func TestTransientTable3Golden(t *testing.T) {
	transient, err := TransientStudy(TransientConfig{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	table3, err := Table3(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rows any
		want uint64
	}{
		{"TransientStudy(K=8, Seed=1)", transient, 0x105e253b5e0abeef},
		{"Table3(8, 1)", table3, 0x1e592689d772c531},
	} {
		got, err := sweep.Fingerprint(c.rows)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x; rows %+v", c.name, got, c.want, c.rows)
		}
	}
}
