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
