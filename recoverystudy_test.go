package sharebackup

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/controller"
	"sharebackup/internal/metrics"
)

// The many-failover study runs in virtual time, so its numbers are a pure
// function of the controller's constants: the result is bit-identical for any
// worker count, each kind counts one recovery per trial, and the per-tech
// total p50/p99 are exactly what the Section 5.3 budget (detection + two
// controller hops + circuit reset) gives for the trial schedule.
func TestRecoveryStudyMatchesModel(t *testing.T) {
	const k, trials = 8, 8
	run := func(workers int) *RecoveryBenchResult {
		res, err := RunRecoveryBench(RecoveryBenchConfig{K: k, N: 1, Trials: trials, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(1)
	if pooled := run(4); !reflect.DeepEqual(res, pooled) {
		t.Fatalf("results differ across worker counts:\n1 worker:  %+v\n4 workers: %+v", res, pooled)
	}

	techs := []Technology{Crosspoint, MEMS2D}
	if len(res.Techs) != len(techs) {
		t.Fatalf("got %d techs, want %d", len(res.Techs), len(techs))
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var p50 [2]time.Duration
	for ti, tech := range techs {
		got := res.Techs[ti]
		for _, kind := range []string{"node", "link"} {
			if n := got.Kinds[kind].Recoveries; n != trials {
				t.Errorf("%v: %d %s recoveries, want %d", tech, n, kind, trials)
			}
		}
		sys, err := New(Config{K: k, N: 1, Tech: tech})
		if err != nil {
			t.Fatal(err)
		}
		cc := sys.Controller.Config()
		fixed := 2*controller.CommDelay + tech.ReconfigDelay()
		var totals []float64
		for i := 0; i < trials; i++ {
			// Node failures land at a phased offset past the last heartbeat;
			// link failures are detected within one probing interval.
			nodeDetect := cc.ProbeInterval + time.Duration(i%7)*cc.ProbeInterval/8
			totals = append(totals, us(nodeDetect+fixed), us(cc.ProbeInterval+fixed))
		}
		want := metrics.Summarize(totals)
		total := got.PhasesUS["total"]
		if total.Median != want.Median || total.P99 != want.P99 {
			t.Errorf("%v: total p50/p99 = %v/%v µs, model says %v/%v",
				tech, total.Median, total.P99, want.Median, want.P99)
		}
		p50[ti] = time.Duration(math.Round(total.Median * float64(time.Microsecond)))
	}
	if got, want := p50[1]-p50[0], MEMS2D.ReconfigDelay()-Crosspoint.ReconfigDelay(); got != want {
		t.Errorf("2D-MEMS p50 exceeds crosspoint's by %v, want the reset-delay difference %v", got, want)
	}
}

// TestRecoveryBenchConfigRejectsBadFields: a trial count below 1 is an error
// naming the field, not an empty study whose percentiles read zero.
func TestRecoveryBenchConfigRejectsBadFields(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   RecoveryBenchConfig
	}{
		{"Trials", RecoveryBenchConfig{K: 4, Trials: -1}},
		{"Trials", RecoveryBenchConfig{K: 4, Trials: 0}},
	} {
		res, err := RunRecoveryBench(c.cfg)
		if err == nil || !strings.Contains(err.Error(), "RecoveryBenchConfig."+c.field) {
			t.Errorf("%+v: result %v, err = %v, want an error naming %s", c.cfg, res, err, c.field)
		}
	}
}
