package hwctrl

import (
	"bytes"
	"testing"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
	"repro/internal/wave"
)

func smallParams() nand.Params {
	p := nand.Hynix()
	p.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 4, PageBytes: 256, SpareBytes: 16}
	p.JitterPct = 0
	return p
}

func newRig(t *testing.T, chips int) (*sim.Kernel, *Controller, *dram.Buffer) {
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
	return k, New(k, ch, mem), mem
}

func TestHWRead(t *testing.T) {
	k, c, mem := newRig(t, 1)
	var pins obs.Buffer
	c.Channel().SetTracer(&pins)
	want := bytes.Repeat([]byte{0xBD}, 256)
	if err := c.Channel().Chip(0).SeedPage(onfi.RowAddr{Block: 1, Page: 2}, want); err != nil {
		t.Fatal(err)
	}
	var opErr error
	done := false
	err := c.Submit(0, Request{
		Kind:     KindRead,
		Addr:     onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 2}},
		DRAMAddr: 0, N: 256,
		Done: func(e error) { opErr = e; done = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done || opErr != nil {
		t.Fatalf("done=%v err=%v", done, opErr)
	}
	got, _ := mem.Read(0, 256)
	if !bytes.Equal(got, want) {
		t.Error("read data mismatch")
	}
	// The waveform is legal ONFI.
	chk := wave.NewChecker(c.Channel().Timing(), c.Channel().Config())
	if vs := chk.Check(pins.Events()); len(vs) != 0 {
		t.Errorf("waveform violations: %v", vs)
	}
}

func TestHWProgramAndErase(t *testing.T) {
	k, c, mem := newRig(t, 1)
	payload := bytes.Repeat([]byte{0x2F}, 128)
	if err := mem.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 0}}
	var sequence []string
	c.Submit(0, Request{
		Kind: KindProgram, Addr: addr, DRAMAddr: 0, N: 128,
		Done: func(e error) {
			if e != nil {
				t.Errorf("program: %v", e)
			}
			sequence = append(sequence, "program")
			c.Submit(0, Request{
				Kind: KindErase, Addr: addr,
				Done: func(e error) {
					if e != nil {
						t.Errorf("erase: %v", e)
					}
					sequence = append(sequence, "erase")
				},
			})
		},
	})
	k.Run()
	if len(sequence) != 2 {
		t.Fatalf("sequence: %v", sequence)
	}
	lun := c.Channel().Chip(0)
	if lun.EraseCount(2) != 1 {
		t.Error("erase missing")
	}
	page, _ := lun.PeekPage(addr.Row)
	if page[0] != 0xFF {
		t.Error("erase did not clear page")
	}
}

func TestHWFailSurfaces(t *testing.T) {
	k, c, _ := newRig(t, 1)
	c.Channel().Chip(0).MarkBad(3)
	var got error
	c.Submit(0, Request{
		Kind: KindProgram, Addr: onfi.Addr{Row: onfi.RowAddr{Block: 3}}, DRAMAddr: 0, N: 16,
		Done: func(e error) { got = e },
	})
	k.Run()
	if got == nil {
		t.Error("program to bad block did not fail")
	}
	if c.Stats().OpsFailed != 1 {
		t.Errorf("stats: %+v", c.Stats())
	}
}

func TestHWInterleavesLUNs(t *testing.T) {
	k, c, _ := newRig(t, 4)
	for i := 0; i < 4; i++ {
		if err := c.Channel().Chip(i).SeedPage(onfi.RowAddr{}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	completions := 0
	for i := 0; i < 4; i++ {
		c.Submit(i, Request{
			Kind: KindRead, Addr: onfi.Addr{}, DRAMAddr: i * 1024, N: 256,
			Done: func(e error) {
				if e != nil {
					t.Error(e)
				}
				completions++
			},
		})
	}
	k.Run()
	if completions != 4 {
		t.Fatalf("completions = %d", completions)
	}
	// tRs overlapped: total below serial time.
	serial := 4 * (smallParams().TR + 50*sim.Microsecond)
	if sim.Duration(k.Now()) >= serial {
		t.Errorf("no interleaving: %v", k.Now())
	}
}

func TestHWQueuesPerLUN(t *testing.T) {
	k, c, _ := newRig(t, 1)
	if err := c.Channel().Chip(0).SeedPage(onfi.RowAddr{}, []byte{9}); err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.Submit(0, Request{
			Kind: KindRead, Addr: onfi.Addr{}, DRAMAddr: i * 512, N: 64,
			Done: func(e error) {
				if e != nil {
					t.Error(e)
				}
				order = append(order, i)
			},
		})
	}
	if c.Pending() != 3 {
		t.Errorf("pending = %d", c.Pending())
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order: %v", order)
		}
	}
	if c.Pending() != 0 {
		t.Error("pending after drain")
	}
}

func TestHWSubmitValidation(t *testing.T) {
	_, c, _ := newRig(t, 1)
	if err := c.Submit(5, Request{}); err == nil {
		t.Error("out-of-range LUN accepted")
	}
}

func TestHWFasterThanReactionBound(t *testing.T) {
	// A single read's end-to-end time should be close to the physical
	// minimum: latch + tR + status + column + transfer + small reaction
	// overheads. Verify we are within 5 µs of that bound.
	k, c, _ := newRig(t, 1)
	if err := c.Channel().Chip(0).SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var end sim.Time
	c.Submit(0, Request{
		Kind: KindRead, Addr: onfi.Addr{}, DRAMAddr: 0, N: 256,
		Done: func(e error) { end = k.Now() },
	})
	k.Run()
	tm := c.Channel().Timing()
	cfg := c.Channel().Config()
	physical := tm.LatchSegment(7) + smallParams().TR +
		tm.LatchSegment(1) + tm.TWHR + tm.DataSegment(cfg, 1) + // status
		tm.LatchSegment(4) + tm.TWHR + tm.DataSegment(cfg, 256)
	slack := sim.Duration(end) - physical
	if slack < 0 {
		t.Fatalf("completed faster than physics: %v < %v", end, physical)
	}
	if slack > 5*sim.Microsecond {
		t.Errorf("hardware overhead %v too large (end %v, physical %v)", slack, end, physical)
	}
}
