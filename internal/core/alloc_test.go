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
// admission pass also works out the chips a parked gang op reserves, and
// neither may starve the other.
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
	completed := 0
	var gangs [2]int // finishes of each self-restarting gang operation
	var done func(error)
	done = func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
		ctrl.Start(core.OpRequest{Func: op, Chip: completed % chips, Done: done})
	}
	// A gang operation's primary chip is above its extra one.
	extra := []int{chips}
	var gangDone [2]func(error)
	for g := range gangDone {
		gangDone[g] = func(err error) {
			if err != nil {
				t.Error(err)
			}
			completed++
			gangs[g]++
			ctrl.Start(core.OpRequest{Func: op, Chip: chips + 1, ExtraChips: extra, Done: gangDone[g]})
		}
	}
	for i := 0; i < chips*perChip; i++ {
		ctrl.Start(core.OpRequest{Func: op, Chip: i % chips, Done: done})
	}
	for g := 0; gang && g < len(gangDone); g++ {
		ctrl.Start(core.OpRequest{Func: op, Chip: chips + 1, ExtraChips: extra, Done: gangDone[g]})
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
	for g := 0; gang && g < len(gangs); g++ {
		if gangs[g] == gangsBefore[g] {
			t.Fatalf("gang operation %d finished no time over 2000 operations (finishes so far %v); it starved",
				g, gangs)
		}
	}
}

// TestAllocGateControllerRead holds the core rung to 0 allocations per
// page READ in steady state on BenchmarkControllerRead's 1x1 and 1x8
// rigs: every read's state, pooled coroutine, transaction and kernel
// events are recycled.
func TestAllocGateControllerRead(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, ways := range []int{1, 8} {
		t.Run(fmt.Sprintf("1x%d", ways), func(t *testing.T) {
			_, runReads := controllerReadRig(t, ways)
			runReads(200) // warm every pool
			const batch = 100
			if got := testing.AllocsPerRun(2000/batch, func() { runReads(batch) }); got != 0 {
				t.Errorf("1x%d rig allocates %v times per %d reads in steady state, want 0", ways, got, batch)
			}
		})
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
			k, runReads := controllerReadRig(b, ways)
			runReads(200) // warm every pool
			b.ReportAllocs()
			events := k.Executed()
			b.ResetTimer()
			runReads(b.N)
			b.StopTimer()
			if n := k.Executed() - events; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
			}
		})
	}
}

// controllerReadRig builds a one-channel rig of ways chips with two page
// READs outstanding per chip, each finished read starting the next on
// the same chip. runReads steps the kernel until n more reads finish.
func controllerReadRig(tb testing.TB, ways int) (k *sim.Kernel, runReads func(n int)) {
	k = sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < ways; i++ {
		l, err := nand.NewLUN(smallParams())
		if err != nil {
			tb.Fatal(err)
		}
		ch.Attach(l)
	}
	cpu, err := cpumodel.New(k, 1000, cpumodel.RTOS())
	if err != nil {
		tb.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: dram.New(1 << 16), CPU: cpu})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ctrl.Close)
	read := make([]core.OpFunc, ways)
	for c := range read {
		read[c] = ops.ReadPage(onfi.Addr{}, c*512, 256)
	}
	completed := 0
	var done func(error)
	done = func(err error) {
		if err != nil {
			tb.Error(err)
		}
		c := completed % ways
		completed++
		ctrl.Start(core.OpRequest{Func: read[c], Chip: c, Done: done})
	}
	for i := 0; i < 2*ways; i++ {
		ctrl.Start(core.OpRequest{Func: read[i%ways], Chip: i % ways, Done: done})
	}
	return k, func(n int) {
		for target := completed + n; completed < target; {
			if !k.Step() {
				tb.Fatal("kernel drained with reads outstanding")
			}
		}
	}
}
