package exp

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ssd"
)

func TestTimeSplitShapes(t *testing.T) {
	rows, err := TimeSplit(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 2 controllers x 2 clocks", len(rows))
	}
	byKey := map[string]SplitRow{}
	for _, r := range rows {
		if r.Metrics.SoftwareTime <= 0 || r.Metrics.HardwareTime <= 0 {
			t.Errorf("%v@%d: empty split sw=%v hw=%v", r.Controller, r.CPUMHz, r.Metrics.SoftwareTime, r.Metrics.HardwareTime)
		}
		if share := r.Metrics.SoftwareShare(); share <= 0 || share >= 1 {
			t.Errorf("%v@%d: SoftwareShare = %v", r.Controller, r.CPUMHz, share)
		}
		if len(r.Metrics.Charges) == 0 {
			t.Errorf("%v@%d: no charge breakdown", r.Controller, r.CPUMHz)
		}
		// The analyzer's span correlation must cover every op and its
		// timeline occupancy must agree with the hardware-time sum —
		// the offline `babolbench analyze` path and the in-process
		// numbers are the same computation.
		if r.Components.Latency.Count != r.Reads {
			t.Errorf("%v@%d: %d spans for %d reads", r.Controller, r.CPUMHz, r.Components.Latency.Count, r.Reads)
		}
		if r.Occupancy.Busy != r.Metrics.HardwareTime {
			t.Errorf("%v@%d: occupancy busy %v != hardware %v", r.Controller, r.CPUMHz, r.Occupancy.Busy, r.Metrics.HardwareTime)
		}
		if r.Components.Latency.P50 <= 0 || r.Components.Latency.P99 < r.Components.Latency.P50 {
			t.Errorf("%v@%d: bad latency percentiles %+v", r.Controller, r.CPUMHz, r.Components.Latency)
		}
		byKey[r.Controller.String()+string(rune('0'+r.CPUMHz/1000))] = r
	}
	// The paper's qualitative shape: the coroutine environment spends a
	// larger software share than the RTOS at the same slow clock.
	var rtos150, coro150 SplitRow
	for _, r := range rows {
		if r.CPUMHz == 150 {
			if r.Controller == ssd.CtrlBabolRTOS {
				rtos150 = r
			} else {
				coro150 = r
			}
		}
	}
	if coro150.Metrics.SoftwareShare() <= rtos150.Metrics.SoftwareShare() {
		t.Errorf("Coro@150 share %.2f not above RTOS@150 share %.2f",
			coro150.Metrics.SoftwareShare(), rtos150.Metrics.SoftwareShare())
	}

	out := RenderTimeSplit(rows)
	if !strings.Contains(out, "Time split") || !strings.Contains(out, "charge breakdown") {
		t.Errorf("render missing sections:\n%s", out)
	}
	csv := TimeSplitCSV(rows)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 5 {
		t.Errorf("csv rows:\n%s", csv)
	}
}

// TestTimeSplitFeedsExternalTracer verifies Options.Tracer reaches the
// rigs TimeSplit builds (the babolbench -trace path).
func TestTimeSplitFeedsExternalTracer(t *testing.T) {
	var n int
	opt := quick()
	opt.Tracer = obs.Func(func(obs.Event) { n++ })
	if _, err := TimeSplit(opt); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("external tracer saw no events")
	}
}
