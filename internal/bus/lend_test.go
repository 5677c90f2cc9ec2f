package bus

import (
	"bytes"
	"testing"

	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// pageRead is one untraced Hynix chip (16 KiB pages) with a stored page
// and a DRAM slot to read it into: the Packetizer's hot path, alone.
type pageRead struct {
	k       *sim.Kernel
	ch      *Channel
	mem     *dram.Buffer
	latches []onfi.Latch
	tR      sim.Duration
	want    []byte
}

func newPageRead(tb testing.TB) *pageRead {
	tb.Helper()
	k := sim.NewKernel()
	ch, err := New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		tb.Fatal(err)
	}
	p := nand.Hynix()
	p.JitterPct = 0
	lun, err := nand.NewLUN(p)
	if err != nil {
		tb.Fatal(err)
	}
	ch.Attach(lun)
	g := p.Geometry
	row := onfi.RowAddr{Block: 1, Page: 2}
	want := make([]byte, g.PageBytes)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	if err := lun.SeedPage(row, want); err != nil {
		tb.Fatal(err)
	}
	latches := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, g.AddrLatches(onfi.Addr{Row: row})...)
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
	return &pageRead{k: k, ch: ch, mem: dram.New(4 * g.FullPageBytes()), latches: latches, tR: p.TR, want: want}
}

// read latches the READ, waits out tR and streams the page into the
// DRAM slot at 0.
func (r *pageRead) read(tb testing.TB) {
	end, err := r.ch.Latch(Mask(0), r.latches, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r.k.RunUntil(end.Add(r.tR))
	if _, err := r.ch.DataOutDRAM(Mask(0), r.mem, 0, len(r.want), 1); err != nil {
		tb.Fatal(err)
	}
	r.k.RunUntil(r.ch.FreeAt())
}

// TestAllocGateLentRead holds a clean page read into DRAM — the page
// lent to the slot, the slot's previous loan dropped — to 0 allocations,
// and the slot to the page's bytes once read.
func TestAllocGateLentRead(t *testing.T) {
	r := newPageRead(t)
	r.read(t) // warm the LUN and the loan table
	if avg := testing.AllocsPerRun(100, func() { r.read(t) }); avg > 0 {
		t.Errorf("lent page read allocated %.1f objects, want 0", avg)
	}
	got, err := r.mem.Window(0, len(r.want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, r.want) {
		t.Error("DRAM slot does not hold the page read into it")
	}
}

// BenchmarkDataOutPage is one 16 KiB clean read from a stored page into
// a DRAM slot: READ latch burst, tR, and the data-out burst.
func BenchmarkDataOutPage(b *testing.B) {
	r := newPageRead(b)
	r.read(b)
	b.SetBytes(int64(len(r.want)))
	b.ResetTimer()
	for range b.N {
		r.read(b)
	}
}
