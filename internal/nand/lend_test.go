package nand

import (
	"bytes"
	"testing"

	"repro/internal/dram"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// TestDataOutDRAMMatchesCopy holds DataOutDRAM to DataOutInto: the same
// command sequence on two LUNs, one streaming into caller buffers, the
// other into DRAM (lending clean page reads), must leave DRAM holding
// exactly the bytes the copies hold — read only after `after` has run,
// so a page programmed or erased while a slot holds its loan must leave
// the slot reading the old bytes.
func TestDataOutDRAMMatchesCopy(t *testing.T) {
	row := onfi.RowAddr{Block: 1, Page: 2}
	eraseRow := func(t *testing.T, l *LUN, now sim.Time) sim.Time {
		latchErase(t, l, now, row)
		return now.Add(l.Params().TBERS)
	}
	reprogram := func(t *testing.T, l *LUN, now sim.Time) sim.Time {
		now = eraseRow(t, l, now)
		latchProgram(t, l, now, onfi.Addr{Row: row}, bytes.Repeat([]byte{0x5A}, l.Params().Geometry.FullPageBytes()))
		return now.Add(l.Params().TPROG)
	}
	skewPhase := func(t *testing.T, l *LUN, now sim.Time) sim.Time {
		ls := []onfi.Latch{onfi.CmdLatch(onfi.CmdSetFeatures), onfi.AddrLatch(byte(onfi.FeatOutputPhase))}
		if err := l.Latch(now, ls); err != nil {
			t.Fatal(err)
		}
		if err := l.DataIn(now, []byte{defaultPhase + 3, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		return now
	}
	for _, tc := range []struct {
		name          string
		before, after func(*testing.T, *LUN, sim.Time) sim.Time
		col           onfi.ColAddr
		bursts        []int
	}{
		{name: "full page", bursts: []int{272}},
		{name: "main area", bursts: []int{256}},
		{name: "column offset", col: 16, bursts: []int{128}},
		{name: "two bursts", bursts: []int{100, 156}},
		{name: "erased row", before: eraseRow, bursts: []int{256}},
		{name: "phase skew", before: skewPhase, bursts: []int{256}},
		{name: "erased under loan", after: eraseRow, bursts: []int{256}},
		{name: "reprogrammed under loan", after: reprogram, bursts: []int{200, 72}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var copies [][]byte
			mem := dram.New(1024)
			for _, lend := range []bool{false, true} {
				l := newTestLUN(t)
				seed := make([]byte, l.Params().Geometry.FullPageBytes())
				fillSeed(seed)
				if err := l.SeedPage(row, seed); err != nil {
					t.Fatal(err)
				}
				now := sim.Time(0)
				if tc.before != nil {
					now = tc.before(t, l, now)
				}
				latchRead(t, l, now, onfi.Addr{Row: row, Col: tc.col})
				now = now.Add(l.Params().TR)
				addr := 0
				for _, n := range tc.bursts {
					if lend {
						if err := l.DataOutDRAM(now, mem, addr, n); err != nil {
							t.Fatal(err)
						}
					} else {
						dst := make([]byte, n)
						if err := l.DataOutInto(now, dst); err != nil {
							t.Fatal(err)
						}
						copies = append(copies, dst)
					}
					addr += n
				}
				if tc.after != nil {
					tc.after(t, l, now)
				}
			}
			addr := 0
			for i, want := range copies {
				got, err := mem.Window(addr, len(want))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("burst %d: DRAM holds %x…, the copy %x…", i, got[:8], want[:8])
				}
				addr += len(want)
			}
		})
	}
}

// TestRegisterWritesStayInTheRegister: the page register owns a page of
// the LUN's arena only while the controller writes it, and a program
// confirm hands that page to the array uncopied. No write to the
// register may reach a page someone else reads: the copyback source, a
// page programmed from the register before, or a DRAM slot the owned
// register was lent to.
func TestRegisterWritesStayInTheRegister(t *testing.T) {
	src, dst := onfi.RowAddr{Block: 1}, onfi.RowAddr{Block: 2}
	peek := func(t *testing.T, l *LUN, r onfi.RowAddr) []byte {
		t.Helper()
		got, err := l.PeekPage(r)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	mustLatch := func(t *testing.T, l *LUN, now sim.Time, ls ...onfi.Latch) {
		t.Helper()
		if err := l.Latch(now, ls); err != nil {
			t.Fatal(err)
		}
	}
	mustDataIn := func(t *testing.T, l *LUN, now sim.Time, data []byte) {
		t.Helper()
		if err := l.DataIn(now, data); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("copyback with modification", func(t *testing.T) {
		l := newTestLUN(t)
		g := l.Params().Geometry
		seed := make([]byte, g.FullPageBytes())
		fillSeed(seed)
		if err := l.SeedPage(src, seed); err != nil {
			t.Fatal(err)
		}
		rd := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, g.AddrLatches(onfi.Addr{Row: src})...)
		mustLatch(t, l, 0, append(rd, onfi.CmdLatch(onfi.CmdCopybackRead))...)
		now := sim.Time(0).Add(l.Params().TR)
		cb := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdCopybackProgram)}, g.AddrLatches(onfi.Addr{Row: dst, Col: 4})...)
		mustLatch(t, l, now, cb...)
		mustDataIn(t, l, now, []byte{1, 2, 3})
		mustLatch(t, l, now, onfi.CmdLatch(onfi.CmdProgram2))
		want := append([]byte{}, seed...)
		copy(want[4:], []byte{1, 2, 3})
		if got := peek(t, l, dst); !bytes.Equal(got, want) {
			t.Errorf("destination holds %x…, want the source with bytes 4-6 changed", got[:8])
		}
		if got := peek(t, l, src); !bytes.Equal(got, seed) {
			t.Errorf("source holds %x… after the copyback, want it untouched", got[:8])
		}
	})

	t.Run("program then program", func(t *testing.T) {
		l := newTestLUN(t)
		full := l.Params().Geometry.FullPageBytes()
		latchProgram(t, l, 0, onfi.Addr{Row: src}, bytes.Repeat([]byte{0x11}, full))
		now := sim.Time(0).Add(l.Params().TPROG)
		latchProgram(t, l, now, onfi.Addr{Row: dst, Col: 8}, []byte{0x22})
		if got := peek(t, l, src); !bytes.Equal(got, bytes.Repeat([]byte{0x11}, full)) {
			t.Errorf("first page holds %x… after the second program", got[:16])
		}
		want := bytes.Repeat([]byte{0xFF}, full)
		want[8] = 0x22
		if got := peek(t, l, dst); !bytes.Equal(got, want) {
			t.Errorf("second page holds %x…, want all-ones but byte 8", got[:16])
		}
	})

	t.Run("owned register lent to DRAM", func(t *testing.T) {
		l := newTestLUN(t)
		g := l.Params().Geometry
		// A read selects the page register for output; the program that
		// follows owns the register while that output stays selected, so
		// a burst at column 0 lends the register's own page.
		latchRead(t, l, 0, onfi.Addr{Row: src})
		now := sim.Time(0).Add(l.Params().TR)
		mustLatch(t, l, now, append([]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram1)}, g.AddrLatches(onfi.Addr{Row: dst})...)...)
		mem := dram.New(1024)
		if err := l.DataOutDRAM(now, mem, 0, 16); err != nil {
			t.Fatal(err)
		}
		col := onfi.EncodeColAddr(0)
		mustLatch(t, l, now, onfi.CmdLatch(onfi.CmdChangeWriteCol), onfi.AddrLatch(col[0]), onfi.AddrLatch(col[1]))
		mustDataIn(t, l, now, []byte{0xB3})
		got, err := mem.Read(0, 16)
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{0xFF}, 16); !bytes.Equal(got, want) {
			t.Errorf("DRAM slot reads %x after a later data in, want %x", got, want)
		}
	})
}
