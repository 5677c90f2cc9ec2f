package core_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sim"
)

// raceDetectorEnabled is set by race_test.go under -race.
var raceDetectorEnabled = false

// TestAllocGateAdmission holds the admission layer to 0 allocations per
// operation. Each chip carries more operations than its active and
// staged slots, so every finish re-admits a queue of parked operations
// and most of them park again; the operation and its completion are
// bound once, so anything allocated per operation is the controller's.
func TestAllocGateAdmission(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const chips, perChip = 2, 6
	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chips; i++ {
		l, err := nand.NewLUN(smallParams())
		if err != nil {
			t.Fatal(err)
		}
		ch.Attach(l)
	}
	cpu, err := cpumodel.New(k, 1000, cpumodel.RTOS())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: dram.New(1 << 16), CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)

	op := func(ctx *core.Ctx) error {
		_, err := ops.ReadStatus(ctx, ctx.ChipIndex())
		return err
	}
	completed := 0
	var done func(error)
	done = func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
		ctrl.Start(core.OpRequest{Func: op, Chip: completed % chips, Done: done})
	}
	for i := 0; i < chips*perChip; i++ {
		ctrl.Start(core.OpRequest{Func: op, Chip: i % chips, Done: done})
	}
	oneOp := func() {
		for target := completed + 1; completed < target; {
			if !k.Step() {
				t.Fatal("kernel drained with operations outstanding")
			}
		}
	}
	for i := 0; i < 500; i++ { // warm: every pooled state and queue at its high-water mark
		oneOp()
	}
	waits := ctrl.Stats().AdmissionWaits
	if got := testing.AllocsPerRun(2000, oneOp); got != 0 {
		t.Errorf("admission allocates %v times per operation in steady state, want 0", got)
	}
	if parked := ctrl.Stats().AdmissionWaits - waits; parked < 2000 {
		t.Fatalf("only %d admission waits over 2000 operations; the gate does not exercise parking", parked)
	}
}
