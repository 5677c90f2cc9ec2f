package core_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sim"
)

func sampleRow() onfi.RowAddr { return onfi.RowAddr{Block: 1, Page: 0} }
func sampleAddr() onfi.Addr   { return onfi.Addr{Row: sampleRow()} }

// pooledRig is a controller rig built around an explicit shared
// coroutine pool, as ssd.Build wires one per drive.
type pooledRig struct {
	*rig
	pool *coro.Pool
}

func newRigPooled(t *testing.T, chips int) *pooledRig {
	t.Helper()
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
	mem := dram.New(1 << 20)
	cpu, err := cpumodel.New(k, 1000, cpumodel.RTOS())
	if err != nil {
		t.Fatal(err)
	}
	pool := coro.NewPool()
	ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: mem, CPU: cpu, CoroPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close(); pool.Close() })
	return &pooledRig{rig: &rig{k: k, ch: ch, mem: mem, ctrl: ctrl}, pool: pool}
}

// waitGoroutines polls, up to a deadline, until the process goroutine
// count drops to at most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine count stuck at %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// faultyFirmwareStep stands in for a buggy operation routine; its name
// must survive into the reported error.
func faultyFirmwareStep() { panic("LUN index out of range") }

// A panic inside an operation must reach Done as an error carrying the
// firmware stack — the originating function name, not just the panic
// value — or a firmware bug inside an op is undebuggable.
func TestOpPanicReportsFirmwareStack(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	var opErr error
	r.ctrl.Start(core.OpRequest{
		Func: func(ctx *core.Ctx) error {
			ctx.Sleep(1 * sim.Microsecond)
			faultyFirmwareStep()
			return nil
		},
		Chip: 0,
		Done: func(err error) { opErr = err },
	})
	r.k.Run()
	if opErr == nil {
		t.Fatal("panic swallowed: Done saw no error")
	}
	if !strings.Contains(opErr.Error(), "LUN index out of range") {
		t.Errorf("panic value missing from error: %v", opErr)
	}
	if !strings.Contains(opErr.Error(), "faultyFirmwareStep") {
		t.Errorf("originating function missing from error: %v", opErr)
	}
	if st := r.ctrl.Stats(); st.OpsFailed != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// Close must release every operation goroutine — including operations
// suspended mid-flight (in a Sleep, or parked on a transaction) — and
// the controller-owned coroutine pool's parked workers, so a torn-down
// controller leaves no goroutine behind.
func TestCloseWithInFlightOpsReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newRig(t, 2, cpumodel.RTOS(), 1000)
	completed := 0
	neverDone := 0
	// Two well-behaved reads that will finish, plus two "stuck firmware"
	// ops that sleep forever and two parked behind them; the stuck ops
	// are still suspended when Close runs.
	for chip := 0; chip < 2; chip++ {
		if err := r.ch.Chip(chip).SeedPage(sampleRow(), []byte{1}); err != nil {
			t.Fatal(err)
		}
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(sampleAddr(), 0, 64), Chip: chip,
			Done: func(err error) {
				if err != nil {
					t.Errorf("read: %v", err)
				}
				completed++
			},
		})
		r.ctrl.Start(core.OpRequest{
			Func: func(ctx *core.Ctx) error {
				for {
					ctx.Sleep(1 * sim.Millisecond)
				}
			},
			Chip:  chip,
			Label: "stuck",
			Done:  func(error) { neverDone++ },
		})
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(sampleAddr(), 0, 64), Chip: chip,
			Done: func(error) { neverDone++ },
		})
	}
	// Run long enough for the first reads to finish and the stuck ops to
	// be admitted and suspended; the sleepers never drain the kernel.
	r.k.RunFor(5 * sim.Millisecond)
	if completed != 2 {
		t.Fatalf("completed %d of 2 well-behaved reads", completed)
	}
	if r.ctrl.Pending() == 0 {
		t.Fatal("nothing in flight; the teardown case is vacuous")
	}
	r.ctrl.Close()
	// A drain after Close must be inert, not resume aborted coroutines.
	r.k.Run()
	if neverDone != 0 {
		t.Errorf("%d aborted ops reported completion", neverDone)
	}
	waitGoroutines(t, base)
}

// A controller handed a shared pool must not close it: the pool belongs
// to the rig, which closes it after all controllers are down.
func TestCloseLeavesSharedPoolOpen(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newRigPooled(t, 1)
	if err := r.ch.Chip(0).SeedPage(sampleRow(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	done := false
	r.ctrl.Start(core.OpRequest{
		Func: ops.ReadPage(sampleAddr(), 0, 64), Chip: 0,
		Done: func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done = true
		},
	})
	r.k.Run()
	if !done {
		t.Fatal("op never completed")
	}
	if r.pool.Parked() == 0 {
		t.Fatal("finished op did not park its coroutine in the shared pool")
	}
	r.ctrl.Close()
	if r.pool.Parked() == 0 {
		t.Error("controller Close tore down the shared pool's workers")
	}
	r.pool.Close()
	waitGoroutines(t, base)
}

// Steady-state operation turnover with the pool keeps the worker count
// flat: a long train of sequential reads reuses one coroutine goroutine
// instead of spawning one each.
func TestPoolHoldsWorkerCountFlat(t *testing.T) {
	r := newRigPooled(t, 1)
	defer r.pool.Close()
	if err := r.ch.Chip(0).SeedPage(sampleRow(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	const reads = 50
	completed := 0
	var next func()
	next = func() {
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(sampleAddr(), 0, 64), Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				completed++
				if completed < reads {
					next()
				}
			},
		})
	}
	next()
	r.k.Run()
	if completed != reads {
		t.Fatalf("completed %d of %d", completed, reads)
	}
	if n := r.pool.Spawned(); n > 2 {
		t.Errorf("%d coroutine workers spawned for %d sequential reads, want <=2", n, reads)
	}
}
