package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wave"
)

type rig struct {
	k    *sim.Kernel
	ch   *bus.Channel
	mem  *dram.Buffer
	ctrl *core.Controller
	pins *obs.Buffer // the channel's pin-level events
}

func smallParams() nand.Params {
	p := nand.Hynix()
	p.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 4, PageBytes: 256, SpareBytes: 16}
	p.JitterPct = 0
	return p
}

func newRig(t *testing.T, chips int, profile cpumodel.Profile, freqMHz int) *rig {
	t.Helper()
	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	pins := &obs.Buffer{}
	ch.SetTracer(pins)
	for i := 0; i < chips; i++ {
		l, err := nand.NewLUN(smallParams())
		if err != nil {
			t.Fatal(err)
		}
		ch.Attach(l)
	}
	mem := dram.New(1 << 20)
	cpu, err := cpumodel.New(k, freqMHz, profile)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: mem, CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	return &rig{k: k, ch: ch, mem: mem, ctrl: ctrl, pins: pins}
}

func TestNewRequiresAllParts(t *testing.T) {
	if _, err := core.New(core.Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestReadPageEndToEnd(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	want := bytes.Repeat([]byte{0x6D}, 256)
	if err := r.ch.Chip(0).SeedPage(onfi.RowAddr{Block: 2, Page: 3}, want); err != nil {
		t.Fatal(err)
	}

	var opErr error
	done := false
	r.ctrl.Start(core.OpRequest{
		Func: ops.ReadPage(onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 3}}, 0, 256),
		Chip: 0,
		Done: func(err error) { opErr = err; done = true },
	})
	r.k.Run()

	if !done {
		t.Fatal("operation never completed")
	}
	if opErr != nil {
		t.Fatal(opErr)
	}
	got, err := r.mem.Read(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read data mismatch")
	}
	// The read must take at least tR plus the transfer time.
	if r.k.Now() < sim.Time(smallParams().TR) {
		t.Errorf("completed at %v, before tR elapsed", r.k.Now())
	}
	// Captured waveform must be ONFI-legal.
	chk := wave.NewChecker(r.ch.Timing(), r.ch.Config())
	if vs := chk.Check(r.pins.Events()); len(vs) != 0 {
		t.Errorf("waveform violations: %v", vs)
	}
	st := r.ctrl.Stats()
	if st.OpsCompleted != 1 || st.OpsFailed != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.TxnsExecuted < 3 {
		t.Errorf("expected ≥3 transactions (cmd, ≥1 poll, transfer), got %d", st.TxnsExecuted)
	}
}

func TestProgramThenReadRoundTrip(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	payload := bytes.Repeat([]byte{0xE7}, 128)
	if err := r.mem.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 0}}

	var steps []string
	r.ctrl.Start(core.OpRequest{
		Func: ops.ProgramPage(addr, 0, 128),
		Chip: 0,
		Done: func(err error) {
			if err != nil {
				t.Errorf("program: %v", err)
			}
			steps = append(steps, "program")
			r.ctrl.Start(core.OpRequest{
				Func: ops.ReadPage(addr, 4096, 128),
				Chip: 0,
				Done: func(err error) {
					if err != nil {
						t.Errorf("read: %v", err)
					}
					steps = append(steps, "read")
				},
			})
		},
	})
	r.k.Run()
	if len(steps) != 2 {
		t.Fatalf("steps: %v", steps)
	}
	got, _ := r.mem.Read(4096, 128)
	if !bytes.Equal(got, payload) {
		t.Error("program/read round trip mismatch")
	}
}

func TestEraseBlockOp(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	lun := r.ch.Chip(0)
	if err := lun.SeedPage(onfi.RowAddr{Block: 3, Page: 0}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var opErr error
	r.ctrl.Start(core.OpRequest{
		Func: ops.EraseBlock(3), Chip: 0,
		Done: func(err error) { opErr = err },
	})
	r.k.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
	if lun.EraseCount(3) != 1 {
		t.Error("erase did not reach the LUN")
	}
	page, _ := lun.PeekPage(onfi.RowAddr{Block: 3, Page: 0})
	if page[0] != 0xFF {
		t.Error("page not erased")
	}
}

func TestPerChipAdmission(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	if err := r.ch.Chip(0).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, i*1024, 64),
			Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Errorf("op %d: %v", i, err)
				}
				order = append(order, i)
			},
		})
	}
	r.k.Run()
	if len(order) != 3 {
		t.Fatalf("completions: %v", order)
	}
	// Same chip → serialized in submission order.
	for i, v := range order {
		if v != i {
			t.Fatalf("order: %v", order)
		}
	}
	if r.ctrl.Stats().AdmissionWaits == 0 {
		t.Error("expected admission waits for same-chip ops")
	}
}

func TestMultiChipInterleaving(t *testing.T) {
	r := newRig(t, 4, cpumodel.RTOS(), 1000)
	for i := 0; i < 4; i++ {
		if err := r.ch.Chip(i).SeedPage(onfi.RowAddr{}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start := r.k.Now()
	completions := 0
	for i := 0; i < 4; i++ {
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, i*1024, 256),
			Chip: i,
			Done: func(err error) {
				if err != nil {
					t.Error(err)
				}
				completions++
			},
		})
	}
	r.k.Run()
	if completions != 4 {
		t.Fatalf("completions = %d", completions)
	}
	elapsed := r.k.Now().Sub(start)
	// Four interleaved reads must take far less than 4 serial reads:
	// their tRs overlap.
	serial := 4 * (smallParams().TR + 50*sim.Microsecond)
	if elapsed >= serial {
		t.Errorf("no interleaving: %v elapsed vs %v serial bound", elapsed, serial)
	}
}

func TestOperationFailureSurfaces(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	// Program the same page twice: second must FAIL.
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 0, Page: 0}}
	var errs []error
	run := func(next func()) func(error) {
		return func(err error) {
			errs = append(errs, err)
			if next != nil {
				next()
			}
		}
	}
	r.ctrl.Start(core.OpRequest{
		Func: ops.ProgramPage(addr, 0, 16), Chip: 0,
		Done: run(func() {
			r.ctrl.Start(core.OpRequest{
				Func: ops.ProgramPage(addr, 0, 16), Chip: 0,
				Done: run(nil),
			})
		}),
	})
	r.k.Run()
	if len(errs) != 2 {
		t.Fatalf("errs: %v", errs)
	}
	if errs[0] != nil {
		t.Errorf("first program: %v", errs[0])
	}
	if errs[1] == nil {
		t.Error("overwrite did not surface FAIL")
	}
	if r.ctrl.Stats().OpsFailed != 1 {
		t.Errorf("OpsFailed = %d", r.ctrl.Stats().OpsFailed)
	}
}

func TestBadAddressFailsFast(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	var opErr error
	r.ctrl.Start(core.OpRequest{
		Func: ops.ReadPage(onfi.Addr{Row: onfi.RowAddr{Block: 999}}, 0, 16),
		Chip: 0,
		Done: func(err error) { opErr = err },
	})
	r.k.Run()
	if opErr == nil {
		t.Error("out-of-range read did not fail")
	}
}

func TestReadIDOp(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	var id []byte
	r.ctrl.Start(core.OpRequest{
		Func: ops.ReadID(&id, 2), Chip: 0,
		Done: func(err error) {
			if err != nil {
				t.Error(err)
			}
		},
	})
	r.k.Run()
	if len(id) != 2 || id[0] != 0xAD {
		t.Errorf("READ ID = % X", id)
	}
}

func TestSetGetFeatureOps(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	var out [4]byte
	r.ctrl.Start(core.OpRequest{
		Func: ops.SetFeature(onfi.FeatReadRetry, [4]byte{5, 0, 0, 0}), Chip: 0,
		Done: func(err error) {
			if err != nil {
				t.Errorf("set feature: %v", err)
			}
			r.ctrl.Start(core.OpRequest{
				Func: ops.GetFeature(onfi.FeatReadRetry, &out), Chip: 0,
				Done: func(err error) {
					if err != nil {
						t.Errorf("get feature: %v", err)
					}
				},
			})
		},
	})
	r.k.Run()
	if out[0] != 5 {
		t.Errorf("feature round trip = %v", out)
	}
}

func TestResetOp(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	var opErr error
	r.ctrl.Start(core.OpRequest{
		Func: ops.Reset(), Chip: 0,
		Done: func(err error) { opErr = err },
	})
	r.k.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
}

func TestSLCReadFasterThanTLC(t *testing.T) {
	measure := func(slc bool) sim.Duration {
		r := newRig(t, 1, cpumodel.RTOS(), 1000)
		if err := r.ch.Chip(0).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			t.Fatal(err)
		}
		fn := ops.ReadPage(onfi.Addr{}, 0, 64)
		if slc {
			fn = ops.ReadPageSLC(onfi.Addr{}, 0, 64)
		}
		var end sim.Time
		r.ctrl.Start(core.OpRequest{Func: fn, Chip: 0, Done: func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			end = r.k.Now()
		}})
		r.k.Run()
		return sim.Duration(end)
	}
	tlc, slc := measure(false), measure(true)
	if slc >= tlc {
		t.Errorf("pSLC read (%v) not faster than TLC read (%v)", slc, tlc)
	}
}

func TestCoroSlowerThanRTOS(t *testing.T) {
	measure := func(p cpumodel.Profile, freq int) sim.Duration {
		r := newRig(t, 1, p, freq)
		if err := r.ch.Chip(0).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			t.Fatal(err)
		}
		var end sim.Time
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, 0, 256), Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				end = r.k.Now()
			},
		})
		r.k.Run()
		return sim.Duration(end)
	}
	rtos := measure(cpumodel.RTOS(), 1000)
	coroSlow := measure(cpumodel.Coro(), 1000)
	if coroSlow <= rtos {
		t.Errorf("Coro (%v) should be slower than RTOS (%v) on an idle channel", coroSlow, rtos)
	}
	slow150 := measure(cpumodel.RTOS(), 150)
	if slow150 <= rtos {
		t.Errorf("150MHz RTOS (%v) should be slower than 1GHz RTOS (%v)", slow150, rtos)
	}
}

func TestPriorityScheduling(t *testing.T) {
	// With a priority txn queue and two chips flooded, the high-priority
	// op's transactions jump the queue.
	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l, _ := nand.NewLUN(smallParams())
		l.SeedPage(onfi.RowAddr{}, []byte{1})
		ch.Attach(l)
	}
	cpu, _ := cpumodel.New(k, 1000, cpumodel.RTOS())
	ctrl, err := core.New(core.Config{
		Kernel: k, Channel: ch, DRAM: dram.New(1 << 20), CPU: cpu,
		TaskQueue: sched.NewTaskPriority(), TxnQueue: sched.NewTxnPriority(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	var first int
	got := false
	for i := 0; i < 2; i++ {
		i := i
		ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, i*1024, 256), Chip: i,
			Priority: i, // chip 1 has higher priority
			Done: func(err error) {
				if err != nil {
					t.Error(err)
				}
				if !got {
					first, got = i, true
				}
			},
		})
	}
	k.Run()
	if first != 1 {
		t.Errorf("high-priority op finished second")
	}
}

func TestCloseAbortsInFlight(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	finished := errors.New("unset")
	r.ctrl.Start(core.OpRequest{
		Func: ops.ReadPage(onfi.Addr{}, 0, 64), Chip: 0,
		Done: func(err error) { finished = err },
	})
	// Run only a little, then close mid-operation.
	r.k.RunFor(sim.Microsecond)
	r.ctrl.Close()
	if r.ctrl.Pending() != 0 {
		t.Error("pending ops after Close")
	}
	_ = finished // Done may or may not have fired; Close only guarantees cleanup.
}

// TestLatencyStats checks that every completed operation reaches the
// controller's own count and the event stream's latency histogram, and
// that the histogram's summary is consistent.
func TestLatencyStats(t *testing.T) {
	r, m, _ := newObsRig(t, 2, cpumodel.RTOS(), 1000)
	for i := 0; i < 2; i++ {
		if err := r.ch.Chip(i).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		r.ctrl.Start(core.OpRequest{
			Func: ops.ReadPage(onfi.Addr{}, i*1024, 64),
			Chip: i % 2,
			Done: func(err error) {
				if err != nil {
					t.Error(err)
				}
			},
		})
	}
	r.k.Run()
	if got := r.ctrl.Stats().OpsCompleted; got != 6 {
		t.Fatalf("OpsCompleted = %d, want 6", got)
	}
	lat := m.Snapshot().OpLatency
	if lat.Count != 6 {
		t.Fatalf("latency samples = %d", lat.Count)
	}
	if lat.Mean() <= 0 || float64(lat.Max) < lat.Mean() {
		t.Errorf("latency stats inconsistent: mean %v max %d", lat.Mean(), lat.Max)
	}
}

func TestScratchRingWraps(t *testing.T) {
	// SET FEATURES uses small scratch windows; thousands of them must
	// recycle the ring without corruption.
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	var chain func(i int)
	completed := 0
	chain = func(i int) {
		if i >= 40 {
			return
		}
		r.ctrl.Start(core.OpRequest{
			Func: ops.SetFeature(onfi.FeatDriveStrength, [4]byte{byte(i)}), Chip: 0,
			Done: func(err error) {
				if err != nil {
					t.Errorf("set feature %d: %v", i, err)
				}
				completed++
				chain(i + 1)
			},
		})
	}
	chain(0)
	r.k.Run()
	if completed != 40 {
		t.Fatalf("completed %d", completed)
	}
	// Verify the final value stuck.
	var out [4]byte
	r.ctrl.Start(core.OpRequest{
		Func: ops.GetFeature(onfi.FeatDriveStrength, &out), Chip: 0,
		Done: func(err error) {
			if err != nil {
				t.Error(err)
			}
		},
	})
	r.k.Run()
	if out[0] != 39 {
		t.Errorf("final feature value %d", out[0])
	}
}

func TestYieldHintCooperates(t *testing.T) {
	r := newRig(t, 2, cpumodel.RTOS(), 1000)
	var order []string
	spinner := func(name string, yields int) core.OpFunc {
		return func(ctx *core.Ctx) error {
			for i := 0; i < yields; i++ {
				order = append(order, name)
				ctx.YieldHint()
			}
			return nil
		}
	}
	r.ctrl.Start(core.OpRequest{Func: spinner("a", 3), Chip: 0})
	r.ctrl.Start(core.OpRequest{Func: spinner("b", 3), Chip: 1})
	r.k.Run()
	if len(order) != 6 {
		t.Fatalf("order: %v", order)
	}
	// Cooperative yielding interleaves the two ops.
	interleaved := false
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			interleaved = true
		}
	}
	if !interleaved {
		t.Errorf("no interleaving: %v", order)
	}
}

func TestGangAdmissionBlocksOverlap(t *testing.T) {
	r := newRig(t, 3, cpumodel.RTOS(), 1000)
	for i := 0; i < 3; i++ {
		if err := r.ch.Chip(i).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	// A gang op over chips 0+1, then a single op on chip 1: the single
	// op must wait for the gang op.
	r.ctrl.Start(core.OpRequest{
		Func: ops.GangRead([]int{0, 1}, onfi.Addr{}, 0, 64), Chip: 0, ExtraChips: []int{1},
		Done: func(err error) {
			if err != nil {
				t.Error(err)
			}
			order = append(order, "gang")
		},
	})
	r.ctrl.Start(core.OpRequest{
		Func: ops.ReadPage(onfi.Addr{}, 4096, 64), Chip: 1,
		Done: func(err error) {
			if err != nil {
				t.Error(err)
			}
			order = append(order, "single")
		},
	})
	r.k.Run()
	if len(order) != 2 || order[0] != "gang" {
		t.Fatalf("order: %v", order)
	}
}

func TestCtxIntrospection(t *testing.T) {
	r := newRig(t, 1, cpumodel.RTOS(), 1000)
	var opID uint64
	var sawTime sim.Time
	id := r.ctrl.Start(core.OpRequest{
		Func: func(ctx *core.Ctx) error {
			opID = ctx.OpID()
			ctx.Sleep(5 * sim.Microsecond)
			sawTime = ctx.Now()
			if ctx.ChipIndex() != 0 {
				t.Error("chip index")
			}
			if ctx.Params().Name != "Hynix" {
				t.Error("params")
			}
			return nil
		},
		Chip: 0,
	})
	r.k.Run()
	if opID != id {
		t.Errorf("OpID %d != Start id %d", opID, id)
	}
	if sawTime < sim.Time(5*sim.Microsecond) {
		t.Errorf("Sleep did not advance time: %v", sawTime)
	}
	if r.ctrl.CPU() == nil || r.ctrl.DRAM() == nil || r.ctrl.Channel() == nil {
		t.Error("accessors")
	}
}

// TestStartRejectsChipOutsideChannel: a request naming a chip the
// channel does not have fails at Start with an error naming the chip
// and the channel's width. Its function never runs, and nothing stays
// pending.
func TestStartRejectsChipOutsideChannel(t *testing.T) {
	r := newRig(t, 3, cpumodel.RTOS(), 1000)
	for _, tc := range []struct {
		chip  int
		extra []int
		bad   int
	}{
		{chip: 3, bad: 3},
		{chip: 16, bad: 16},
		{chip: -1, bad: -1},
		{chip: 0, extra: []int{1, 3}, bad: 3},
		{chip: 2, extra: []int{-1}, bad: -1},
	} {
		ran := false
		var opErr error
		calls := 0
		r.ctrl.Start(core.OpRequest{
			Func:       func(*core.Ctx) error { ran = true; return nil },
			Chip:       tc.chip,
			ExtraChips: tc.extra,
			Done:       func(err error) { opErr = err; calls++ },
		})
		r.k.Run()
		want := fmt.Sprintf("chip %d on a 3-chip channel", tc.bad)
		switch {
		case ran:
			t.Errorf("chip %d extra %v: the operation ran", tc.chip, tc.extra)
		case calls != 1:
			t.Errorf("chip %d extra %v: Done called %d times", tc.chip, tc.extra, calls)
		case opErr == nil || !strings.Contains(opErr.Error(), want) || strings.Contains(opErr.Error(), "panic"):
			t.Errorf("chip %d extra %v: error %v, want one naming %q", tc.chip, tc.extra, opErr, want)
		}
		if n := r.ctrl.Pending(); n != 0 {
			t.Errorf("chip %d extra %v: %d operations pending", tc.chip, tc.extra, n)
		}
	}
	// The controller still serves chips it has.
	var opErr error
	r.ctrl.Start(core.OpRequest{Func: ops.Reset(), Chip: 2, Done: func(err error) { opErr = err }})
	r.k.Run()
	if opErr != nil {
		t.Errorf("reset on chip 2 after the rejected requests: %v", opErr)
	}
	if s := r.ctrl.Stats(); s.OpsSubmitted != 6 || s.OpsCompleted != 6 || s.OpsFailed != 5 {
		t.Errorf("stats %+v, want 6 submitted and completed, 5 failed", s)
	}
}
