package ops_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sim"
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

func newRig(t *testing.T, chips int, params nand.Params) *rig {
	t.Helper()
	k := sim.NewKernel()
	ch, err := bus.New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	pins := &obs.Buffer{}
	ch.SetTracer(pins)
	for i := 0; i < chips; i++ {
		l, err := nand.NewLUN(params)
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
	ctrl, err := core.New(core.Config{Kernel: k, Channel: ch, DRAM: mem, CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	return &rig{k: k, ch: ch, mem: mem, ctrl: ctrl, pins: pins}
}

// run starts an op and runs the kernel to completion, returning the op's
// error.
func (r *rig) run(t *testing.T, req core.OpRequest) error {
	t.Helper()
	var opErr error
	done := false
	req.Done = func(err error) { opErr = err; done = true }
	r.ctrl.Start(req)
	r.k.Run()
	if !done {
		t.Fatal("operation never completed")
	}
	return opErr
}

func TestCacheReadPages(t *testing.T) {
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	var want []byte
	for p := 0; p < 3; p++ {
		page := bytes.Repeat([]byte{byte(0xA0 + p)}, 256)
		if err := lun.SeedPage(onfi.RowAddr{Block: 0, Page: p}, page); err != nil {
			t.Fatal(err)
		}
		want = append(want, page...)
	}
	err := r.run(t, core.OpRequest{
		Func: ops.CacheReadPages(onfi.RowAddr{Block: 0, Page: 0}, 3, 0, 256),
		Chip: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.mem.Read(0, 3*256)
	if !bytes.Equal(got, want) {
		t.Error("cache read stream mismatch")
	}
}

func TestCacheReadFasterThanPlainReads(t *testing.T) {
	measure := func(cache bool) sim.Duration {
		r := newRig(t, 1, smallParams())
		lun := r.ch.Chip(0)
		for p := 0; p < 4; p++ {
			if err := lun.SeedPage(onfi.RowAddr{Block: 0, Page: p}, []byte{byte(p)}); err != nil {
				t.Fatal(err)
			}
		}
		var end sim.Time
		if cache {
			r.ctrl.Start(core.OpRequest{
				Func: ops.CacheReadPages(onfi.RowAddr{}, 4, 0, 256),
				Chip: 0,
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
		// Four dependent plain reads.
		var launch func(p int)
		launch = func(p int) {
			r.ctrl.Start(core.OpRequest{
				Func: ops.ReadPage(onfi.Addr{Row: onfi.RowAddr{Page: p}}, p*256, 256),
				Chip: 0,
				Done: func(err error) {
					if err != nil {
						t.Fatal(err)
					}
					if p < 3 {
						launch(p + 1)
					} else {
						end = r.k.Now()
					}
				},
			})
		}
		launch(0)
		r.k.Run()
		return sim.Duration(end)
	}
	plain, cached := measure(false), measure(true)
	if cached >= plain {
		t.Errorf("cache read (%v) not faster than plain reads (%v)", cached, plain)
	}
}

func TestReadWithRetryRecovers(t *testing.T) {
	p := smallParams()
	p.RawBitErrorPer512B = 16
	r := newRig(t, 1, p)
	lun := r.ch.Chip(0)
	want := bytes.Repeat([]byte{0x55}, 256)
	row := onfi.RowAddr{Block: 1, Page: 0}
	if err := lun.SeedPage(row, want); err != nil {
		t.Fatal(err)
	}
	lun.Wear(1, p.MaxPECycles) // aged block: plain reads see flips

	verify := func(data []byte) bool { return bytes.Equal(data, want) }
	err := r.run(t, core.OpRequest{
		Func: ops.ReadWithRetry(onfi.Addr{Row: row}, 0, 256, verify),
		Chip: 0,
	})
	if err != nil {
		t.Fatalf("read retry failed: %v", err)
	}
	got, _ := r.mem.Read(0, 256)
	if !bytes.Equal(got, want) {
		t.Error("retry did not deliver clean data")
	}
}

func TestReadWithRetryUnsupportedPackage(t *testing.T) {
	p := smallParams()
	p.ReadRetryLevels = 0
	r := newRig(t, 1, p)
	err := r.run(t, core.OpRequest{
		Func: ops.ReadWithRetry(onfi.Addr{}, 0, 16, func([]byte) bool { return true }),
		Chip: 0,
	})
	if err == nil {
		t.Error("retry on unsupported package accepted")
	}
}

func TestGangProgramAndRead(t *testing.T) {
	r := newRig(t, 4, smallParams())
	payload := bytes.Repeat([]byte{0x3A}, 256)
	if err := r.mem.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	replicas := []int{0, 2, 3}
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 0}}

	err := r.run(t, core.OpRequest{
		Func:       ops.GangProgram(replicas, addr, 0, 256),
		Chip:       0,
		ExtraChips: []int{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range replicas {
		page, _ := r.ch.Chip(c).PeekPage(addr.Row)
		if !bytes.Equal(page[:256], payload) {
			t.Errorf("replica on chip %d missing", c)
		}
	}
	// Chip 1 untouched.
	if r.ch.Chip(1).Programmed(addr.Row) {
		t.Error("gang program leaked to chip 1")
	}

	err = r.run(t, core.OpRequest{
		Func:       ops.GangRead(replicas, addr, 8192, 256),
		Chip:       0,
		ExtraChips: []int{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.mem.Read(8192, 256)
	if !bytes.Equal(got, payload) {
		t.Error("gang read mismatch")
	}
}

func TestEraseWithSuspend(t *testing.T) {
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	urgent := bytes.Repeat([]byte{0x99}, 256)
	if err := lun.SeedPage(onfi.RowAddr{Block: 2, Page: 1}, urgent); err != nil {
		t.Fatal(err)
	}
	if err := lun.SeedPage(onfi.RowAddr{Block: 5, Page: 0}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	err := r.run(t, core.OpRequest{
		Func: ops.EraseWithSuspend(5,
			onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 1}}, 0, 256,
			smallParams().TBERS/4),
		Chip: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.mem.Read(0, 256)
	if !bytes.Equal(got, urgent) {
		t.Error("urgent read during suspend mismatch")
	}
	if lun.EraseCount(5) != 1 {
		t.Error("erase did not complete")
	}
	page, _ := lun.PeekPage(onfi.RowAddr{Block: 5, Page: 0})
	if page[0] != 0xFF {
		t.Error("block 5 not actually erased")
	}
	if lun.Stats().SuspendCount != 1 {
		t.Error("suspend did not happen")
	}
}

func TestEraseWithSuspendRejectsSameBlock(t *testing.T) {
	r := newRig(t, 1, smallParams())
	err := r.run(t, core.OpRequest{
		Func: ops.EraseWithSuspend(2, onfi.Addr{Row: onfi.RowAddr{Block: 2}}, 0, 16, sim.Microsecond),
		Chip: 0,
	})
	if err == nil {
		t.Error("read from the erasing block accepted")
	}
}

func TestBootSequence(t *testing.T) {
	r := newRig(t, 1, smallParams())
	err := r.run(t, core.OpRequest{
		Func: ops.BootSequence(smallParams().IDBytes[:2], 0x15),
		Chip: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong expected ID must fail.
	err = r.run(t, core.OpRequest{
		Func: ops.BootSequence([]byte{0x00, 0x01}, 0x15),
		Chip: 0,
	})
	if err == nil {
		t.Error("boot with wrong ID accepted")
	}
}

func TestGangValidation(t *testing.T) {
	r := newRig(t, 2, smallParams())
	if err := r.run(t, core.OpRequest{Func: ops.GangRead(nil, onfi.Addr{}, 0, 16), Chip: 0}); err == nil {
		t.Error("gang read with no replicas accepted")
	}
	if err := r.run(t, core.OpRequest{Func: ops.GangProgram(nil, onfi.Addr{}, 0, 16), Chip: 0}); err == nil {
		t.Error("gang program with no replicas accepted")
	}
	if err := r.run(t, core.OpRequest{Func: ops.CacheReadPages(onfi.RowAddr{}, 0, 0, 16), Chip: 0}); err == nil {
		t.Error("zero-count cache read accepted")
	}
}

func TestInterruptibleProgramServesReads(t *testing.T) {
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	urgent := bytes.Repeat([]byte{0x66}, 256)
	if err := lun.SeedPage(onfi.RowAddr{Block: 3, Page: 1}, urgent); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x44}, 256)
	if err := r.mem.Write(0, payload); err != nil {
		t.Fatal(err)
	}

	// One urgent read, delivered on the first check.
	served := false
	readDone := false
	next := func() (ops.UrgentRead, bool) {
		if served {
			return ops.UrgentRead{}, false
		}
		served = true
		return ops.UrgentRead{
			Addr: onfi.Addr{Row: onfi.RowAddr{Block: 3, Page: 1}}, DramAddr: 4096, N: 256,
			Done: func(err error) {
				if err != nil {
					t.Errorf("urgent read: %v", err)
				}
				readDone = true
			},
		}, true
	}
	err := r.run(t, core.OpRequest{
		Func: ops.InterruptibleProgram(onfi.Addr{Row: onfi.RowAddr{Block: 5}}, 0, 256, next),
		Chip: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !readDone {
		t.Fatal("urgent read never served")
	}
	got, _ := r.mem.Read(4096, 256)
	if !bytes.Equal(got, urgent) {
		t.Error("urgent read data mismatch")
	}
	// The program still completed correctly.
	page, _ := lun.PeekPage(onfi.RowAddr{Block: 5})
	if !bytes.Equal(page[:256], payload) {
		t.Error("program data mismatch after suspension")
	}
	if lun.Stats().SuspendCount == 0 {
		t.Error("program was never suspended")
	}
}

// An erase that finishes before suspendAfter runs out leaves nothing to
// suspend: the urgent read runs after it, and the operation succeeds.
func TestEraseWithSuspendOutlastedByErase(t *testing.T) {
	p := smallParams()
	r := newRig(t, 1, p)
	lun := r.ch.Chip(0)
	urgent := bytes.Repeat([]byte{0x99}, 256)
	if err := lun.SeedPage(onfi.RowAddr{Block: 2, Page: 1}, urgent); err != nil {
		t.Fatal(err)
	}
	err := r.run(t, core.OpRequest{
		Func: ops.EraseWithSuspend(5, onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 1}}, 0, 256, 2*p.TBERS),
		Chip: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.mem.Read(0, 256); !bytes.Equal(got, urgent) {
		t.Error("urgent read after the erase mismatch")
	}
	if lun.EraseCount(5) != 1 {
		t.Error("erase did not complete")
	}
	if n := lun.Stats().SuspendCount; n != 0 {
		t.Errorf("%d suspends of a finished erase", n)
	}
}

// A read address outside the geometry is refused before the erase
// starts, so the chip is never left suspended.
func TestEraseWithSuspendRefusesBadReadAddr(t *testing.T) {
	p := smallParams()
	r := newRig(t, 1, p)
	bad := onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 99}}
	err := r.run(t, core.OpRequest{Func: ops.EraseWithSuspend(5, bad, 0, 256, p.TBERS/4), Chip: 0})
	if err == nil {
		t.Fatal("read of page 99 of a 4-page block accepted")
	}
	if n := len(r.pins.Events()); n != 0 {
		t.Errorf("refused operation drove %d pin-level events", n)
	}
	if err := r.run(t, core.OpRequest{Func: ops.EraseBlock(5), Chip: 0}); err != nil {
		t.Fatalf("erase after the refused operation: %v", err)
	}
}

// An urgent read with a bad address fails through its own Done without
// suspending the erase, which runs on. One whose DRAM window is out of
// range fails while the erase is suspended: it too reports through its
// Done, and the erase is resumed. Either way the chip then serves the
// next interruptible erase's reads normally.
func TestInterruptibleEraseFailsBadUrgentRead(t *testing.T) {
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	urgent := bytes.Repeat([]byte{0x5A}, 256)
	if err := lun.SeedPage(onfi.RowAddr{Block: 2, Page: 1}, urgent); err != nil {
		t.Fatal(err)
	}
	once := func(addr onfi.Addr, dramAddr int, readErr *error) func() (ops.UrgentRead, bool) {
		yielded := false
		return func() (ops.UrgentRead, bool) {
			if yielded {
				return ops.UrgentRead{}, false
			}
			yielded = true
			return ops.UrgentRead{Addr: addr, DramAddr: dramAddr, N: 256, Done: func(err error) { *readErr = err }}, true
		}
	}
	good := onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 1}}
	for i, c := range []struct {
		addr              onfi.Addr
		dramAddr          int
		suspends, resumes uint64
	}{
		{onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 99}}, 0, 0, 0},
		{good, r.mem.Size(), 1, 1},
	} {
		var readErr error
		if err := r.run(t, core.OpRequest{Func: ops.InterruptibleErase(1, once(c.addr, c.dramAddr, &readErr)), Chip: 0}); err != nil {
			t.Fatalf("case %d: erase with a bad urgent read: %v", i, err)
		}
		if readErr == nil {
			t.Errorf("case %d: bad urgent read reported success", i)
		}
		if lun.EraseCount(1) != i+1 {
			t.Errorf("case %d: erase did not complete", i)
		}
		if st := lun.Stats(); st.SuspendCount != c.suspends || st.ResumeCnt != c.resumes {
			t.Errorf("case %d: %d suspends, %d resumes", i, st.SuspendCount, st.ResumeCnt)
		}
	}

	goodErr := errors.New("never served")
	if err := r.run(t, core.OpRequest{Func: ops.InterruptibleErase(3, once(good, 0, &goodErr)), Chip: 0}); err != nil {
		t.Fatalf("next interruptible erase: %v", err)
	}
	if goodErr != nil {
		t.Errorf("urgent read: %v", goodErr)
	}
	if got, _ := r.mem.Read(0, 256); !bytes.Equal(got, urgent) {
		t.Error("urgent read data mismatch")
	}
}

// A bad block's erase FAIL reaches the caller whether the erase is
// suspended for the read or finishes before suspendAfter runs out; a
// READ latched after it must not bury the FAIL.
func TestEraseWithSuspendReportsEraseFail(t *testing.T) {
	p := smallParams()
	for _, after := range []sim.Duration{p.TBERS / 4, 2 * p.TBERS} {
		r := newRig(t, 1, p)
		lun := r.ch.Chip(0)
		lun.MarkBad(5)
		err := r.run(t, core.OpRequest{
			Func: ops.EraseWithSuspend(5, onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 1}}, 0, 256, after),
			Chip: 0,
		})
		if err == nil {
			t.Errorf("suspendAfter %v: erase of a bad block reported success", after)
		}
	}
}

// An urgent read whose DRAM window is out of range fails after the
// erase is suspended; the erase is still resumed and completed, so the
// chip takes the next erase.
func TestEraseWithSuspendResumesAfterFailedRead(t *testing.T) {
	p := smallParams()
	r := newRig(t, 1, p)
	lun := r.ch.Chip(0)
	err := r.run(t, core.OpRequest{
		Func: ops.EraseWithSuspend(5, onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 1}}, r.mem.Size(), 256, p.TBERS/4),
		Chip: 0,
	})
	if err == nil {
		t.Fatal("read into a DRAM window past the buffer reported success")
	}
	if st := lun.Stats(); st.SuspendCount != 1 || st.ResumeCnt != 1 {
		t.Errorf("%d suspends, %d resumes", st.SuspendCount, st.ResumeCnt)
	}
	if lun.EraseCount(5) != 1 {
		t.Error("erase did not complete")
	}
	if err := r.run(t, core.OpRequest{Func: ops.EraseBlock(5), Chip: 0}); err != nil {
		t.Fatalf("erase after the failed read: %v", err)
	}
}
