package core_test

import (
	"fmt"
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
// The gang mix adds two 2-chip operations on two more chips, each
// restarting itself: one runs while the other is parked, so every
// admission pass also works out the chips a parked gang op reserves.
func TestAllocGateAdmission(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	t.Run("single", func(t *testing.T) { allocGateAdmission(t, false) })
	t.Run("gang", func(t *testing.T) { allocGateAdmission(t, true) })
}

func allocGateAdmission(t *testing.T, gang bool) {
	const chips, perChip = 2, 6
	attached := chips
	if gang {
		attached += 2
	}
	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < attached; i++ {
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
	completed, gangs := 0, 0
	var done, gangDone func(error)
	done = func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
		ctrl.Start(core.OpRequest{Func: op, Chip: completed % chips, Done: done})
	}
	// A gang operation's primary chip is above its extra one.
	extra := []int{chips}
	gangDone = func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
		gangs++
		ctrl.Start(core.OpRequest{Func: op, Chip: chips + 1, ExtraChips: extra, Done: gangDone})
	}
	for i := 0; i < chips*perChip; i++ {
		ctrl.Start(core.OpRequest{Func: op, Chip: i % chips, Done: done})
	}
	for i := 0; gang && i < 2; i++ {
		ctrl.Start(core.OpRequest{Func: op, Chip: chips + 1, ExtraChips: extra, Done: gangDone})
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
	// AllocsPerRun truncates its average, so each run is a batch of
	// operations: one allocation per gang op would read as 0 per op.
	const batch = 100
	waits, gangsBefore := ctrl.Stats().AdmissionWaits, gangs
	if got := testing.AllocsPerRun(2000/batch, func() {
		for i := 0; i < batch; i++ {
			oneOp()
		}
	}); got != 0 {
		t.Errorf("admission allocates %v times per %d operations in steady state, want 0", got, batch)
	}
	if parked := ctrl.Stats().AdmissionWaits - waits; parked < 2000 {
		t.Fatalf("only %d admission waits over 2000 operations; the gate does not exercise parking", parked)
	}
	if gang && gangs == gangsBefore {
		t.Fatal("no gang operation finished over 2000 operations; the gate does not exercise gang admission")
	}
}

// BenchmarkControllerRead runs the full life of one page READ — admit,
// schedule, switch, submit, execute, finish — on a one-channel rig of 1
// and of 8 chips, two reads outstanding per chip so every chip keeps
// its active and staged slots full. It reports host ns per operation,
// host ns per kernel event, and allocations.
func BenchmarkControllerRead(b *testing.B) {
	for _, ways := range []int{1, 8} {
		b.Run(fmt.Sprintf("1x%d", ways), func(b *testing.B) {
			k := sim.NewKernel()
			ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < ways; i++ {
				l, err := nand.NewLUN(smallParams())
				if err != nil {
					b.Fatal(err)
				}
				ch.Attach(l)
			}
			cpu, err := cpumodel.New(k, 1000, cpumodel.RTOS())
			if err != nil {
				b.Fatal(err)
			}
			ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: dram.New(1 << 16), CPU: cpu})
			if err != nil {
				b.Fatal(err)
			}
			defer ctrl.Close()
			read := make([]core.OpFunc, ways)
			for c := range read {
				read[c] = ops.ReadPage(onfi.Addr{}, c*512, 256)
			}
			completed := 0
			var done func(error)
			done = func(err error) {
				if err != nil {
					b.Error(err)
				}
				c := completed % ways
				completed++
				ctrl.Start(core.OpRequest{Func: read[c], Chip: c, Done: done})
			}
			for i := 0; i < 2*ways; i++ {
				ctrl.Start(core.OpRequest{Func: read[i%ways], Chip: i % ways, Done: done})
			}
			runOps := func(n int) {
				for target := completed + n; completed < target; {
					if !k.Step() {
						b.Fatal("kernel drained with reads outstanding")
					}
				}
			}
			runOps(200) // warm every pool
			b.ReportAllocs()
			events := k.Executed()
			b.ResetTimer()
			runOps(b.N)
			b.StopTimer()
			if n := k.Executed() - events; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
			}
		})
	}
}
