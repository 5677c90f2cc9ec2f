package ufsm

import (
	"bytes"
	"testing"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/wave"
)

func smallParams() nand.Params {
	p := nand.Hynix()
	p.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 4, PageBytes: 256, SpareBytes: 16}
	p.JitterPct = 0
	return p
}

func newRig(t *testing.T, chips int) (*sim.Kernel, *Executor, *dram.Buffer) {
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
	mem := dram.New(1 << 16)
	return k, NewExecutor(ch, mem), mem
}

func TestExecuteStatusTransaction(t *testing.T) {
	_, e, _ := newRig(t, 1)
	tx := &txn.Transaction{
		ID: 1, OpID: 1, Chip: 0,
		Instrs: []txn.Instr{
			txn.ChipControl(bus.Mask(0)),
			txn.CmdAddr([]onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}),
			txn.DataRead(-1, 1, true),
		},
	}
	res := e.Execute(tx)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Captured) != 1 {
		t.Fatalf("captured %d bytes", len(res.Captured))
	}
	if res.Captured[0]&onfi.StatusRDY == 0 {
		t.Errorf("status %08b not ready", res.Captured[0])
	}
	if res.End == 0 {
		t.Error("transaction took no time")
	}
	st := e.Stats()
	if st.Transactions != 1 || st.Instructions != 3 {
		t.Errorf("stats: %+v", st)
	}
}

func TestExecuteFullReadIntoDRAM(t *testing.T) {
	k, e, mem := newRig(t, 1)
	var pins obs.Buffer
	e.Channel().SetTracer(&pins)
	lun := e.Channel().Chip(0)
	want := bytes.Repeat([]byte{0x42}, 256)
	if err := lun.SeedPage(onfi.RowAddr{Block: 1, Page: 1}, want); err != nil {
		t.Fatal(err)
	}
	g := lun.Params().Geometry

	// Transaction 1: command + address.
	var latches []onfi.Latch
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead1))
	latches = append(latches, g.AddrLatches(onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 1}})...)
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
	res := e.Execute(&txn.Transaction{
		ID: 1, OpID: 1, Chip: 0,
		Instrs: []txn.Instr{
			txn.ChipControl(bus.Mask(0)),
			txn.CmdAddr(latches),
		},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	// Wait out tR, then transaction 2: data → DRAM at 4096.
	k.RunUntil(res.End.Add(lun.Params().TR))
	res = e.Execute(&txn.Transaction{
		ID: 2, OpID: 1, Chip: 0,
		Instrs: []txn.Instr{
			txn.ChipControl(bus.Mask(0)),
			txn.DataRead(4096, 256, false),
		},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got, err := mem.Read(4096, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("DMA'd page mismatch")
	}
	if e.Stats().DMAOutBytes != 256 {
		t.Errorf("DMAOutBytes = %d", e.Stats().DMAOutBytes)
	}
	// The full trace is ONFI-legal.
	chk := wave.NewChecker(e.Channel().Timing(), e.Channel().Config())
	if vs := chk.Check(pins.Events()); len(vs) != 0 {
		t.Errorf("waveform violations: %v", vs)
	}
}

func TestExecuteProgramFromDRAM(t *testing.T) {
	k, e, mem := newRig(t, 1)
	lun := e.Channel().Chip(0)
	g := lun.Params().Geometry
	payload := bytes.Repeat([]byte{0x99}, 128)
	if err := mem.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	var latches []onfi.Latch
	latches = append(latches, onfi.CmdLatch(onfi.CmdProgram1))
	latches = append(latches, g.AddrLatches(onfi.Addr{Row: onfi.RowAddr{Block: 2}})...)
	res := e.Execute(&txn.Transaction{
		ID: 1, OpID: 1, Chip: 0,
		Instrs: []txn.Instr{
			txn.ChipControl(bus.Mask(0)),
			txn.CmdAddr(latches),
			txn.DataWrite(0, 128),
			txn.CmdAddr([]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram2)}),
		},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	k.RunUntil(res.End.Add(lun.Params().TPROG))
	page, err := lun.PeekPage(onfi.RowAddr{Block: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page[:128], payload) {
		t.Error("programmed data mismatch")
	}
	if e.Stats().DMAInBytes != 128 {
		t.Errorf("DMAInBytes = %d", e.Stats().DMAInBytes)
	}
}

func TestExecuteTimerWait(t *testing.T) {
	_, e, _ := newRig(t, 1)
	res := e.Execute(&txn.Transaction{
		ID: 1, OpID: 1,
		Instrs: []txn.Instr{txn.TimerWait(150 * sim.Nanosecond)},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.End != sim.Time(150*sim.Nanosecond) {
		t.Errorf("timer end = %v", res.End)
	}
}

func TestExecuteInvalidTransaction(t *testing.T) {
	_, e, _ := newRig(t, 1)
	res := e.Execute(&txn.Transaction{})
	if res.Err == nil {
		t.Error("empty transaction executed")
	}
}

func TestExecuteBadDRAMWindow(t *testing.T) {
	_, e, _ := newRig(t, 1)
	res := e.Execute(&txn.Transaction{
		Instrs: []txn.Instr{
			txn.ChipControl(bus.Mask(0)),
			txn.DataWrite(1<<20, 16),
		},
	})
	if res.Err == nil {
		t.Error("out-of-range DMA accepted")
	}
}

func TestExecuteLUNProtocolErrorSurfaces(t *testing.T) {
	_, e, _ := newRig(t, 1)
	// A bare confirm command is a protocol error at the LUN.
	res := e.Execute(&txn.Transaction{
		Instrs: []txn.Instr{
			txn.ChipControl(bus.Mask(0)),
			txn.CmdAddr([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead2)}),
		},
	})
	if res.Err == nil {
		t.Error("LUN protocol error not surfaced")
	}
}
