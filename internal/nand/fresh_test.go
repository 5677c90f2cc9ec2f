package nand

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/onfi"
	"repro/internal/sim"
)

// The bytes a fresh LUN shows before and right after its first use of
// each register. The registers, the load buffer and the parameter page
// may be built lazily, so these cases pin what every first use reads out:
// a register nothing has loaded yet reads as zeros (the power-on state),
// an erased row as 0xFF, and GET FEATURES streams its four parameters
// followed by whatever the cache register holds.

// latches feeds one latch burst at now, failing the test on a refusal.
func latches(t *testing.T, l *LUN, now sim.Time, ls ...onfi.Latch) {
	t.Helper()
	if err := l.Latch(now, ls); err != nil {
		t.Fatalf("latch % v: %v", ls, err)
	}
}

// readLatches is a READ of a with the given confirm (30h or 31h).
func readLatches(l *LUN, a onfi.Addr, confirm onfi.Cmd) []onfi.Latch {
	ls := []onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}
	ls = append(ls, l.Params().Geometry.AddrLatches(a)...)
	return append(ls, onfi.CmdLatch(confirm))
}

// dataOut streams n bytes at now, failing the test on a refusal.
func dataOut(t *testing.T, l *LUN, now sim.Time, n int) []byte {
	t.Helper()
	got, err := l.DataOut(now, n)
	if err != nil {
		t.Fatalf("data out: %v", err)
	}
	return got
}

func TestFreshLUNDataOut(t *testing.T) {
	p := smallParams()
	full := p.Geometry.FullPageBytes()
	tR := sim.Time(0).Add(p.TR)
	seedA0 := func(t *testing.T, l *LUN) {
		if err := l.SeedPage(onfi.RowAddr{}, bytes.Repeat([]byte{0xA0}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	padded := func(head []byte, n int) []byte {
		return append(append([]byte{}, head...), make([]byte, n-len(head))...)
	}
	param := buildParameterPage(p)
	cases := []struct {
		name string
		run  func(t *testing.T, l *LUN) []byte
		want []byte
	}{
		{"page register at power-on",
			func(t *testing.T, l *LUN) []byte {
				cb := onfi.EncodeColAddr(0)
				latches(t, l, 0, onfi.CmdLatch(onfi.CmdChangeReadCol1),
					onfi.AddrLatch(cb[0]), onfi.AddrLatch(cb[1]), onfi.CmdLatch(onfi.CmdChangeReadCol2))
				return dataOut(t, l, 0, full)
			},
			make([]byte, full)},
		{"cache register before any cache load",
			func(t *testing.T, l *LUN) []byte {
				seedA0(t, l)
				// 31h keeps the LUN ready and streams the cache register's
				// previous content while the array loads the page.
				latches(t, l, 0, readLatches(l, onfi.Addr{}, onfi.CmdCacheRead)...)
				return dataOut(t, l, 0, full)
			},
			make([]byte, full)},
		{"cache read of a seeded row after tR",
			func(t *testing.T, l *LUN) []byte {
				seedA0(t, l)
				latches(t, l, 0, readLatches(l, onfi.Addr{}, onfi.CmdCacheRead)...)
				latches(t, l, tR, onfi.CmdLatch(onfi.CmdCacheReadEnd))
				return dataOut(t, l, tR, full)
			},
			padded(bytes.Repeat([]byte{0xA0}, 16), full)},
		{"3Fh with nothing read",
			func(t *testing.T, l *LUN) []byte {
				latches(t, l, 0, onfi.CmdLatch(onfi.CmdCacheReadEnd))
				return dataOut(t, l, 0, full)
			},
			make([]byte, full)},
		{"3Fh after a plain read",
			func(t *testing.T, l *LUN) []byte {
				seedA0(t, l)
				latches(t, l, 0, readLatches(l, onfi.Addr{}, onfi.CmdRead2)...)
				latches(t, l, tR, onfi.CmdLatch(onfi.CmdCacheReadEnd))
				return dataOut(t, l, tR, full)
			},
			padded(bytes.Repeat([]byte{0xA0}, 16), full)},
		{"3Fh after an erased-row read",
			func(t *testing.T, l *LUN) []byte {
				latches(t, l, 0, readLatches(l, onfi.Addr{Row: onfi.RowAddr{Block: 2}}, onfi.CmdRead2)...)
				latches(t, l, tR, onfi.CmdLatch(onfi.CmdCacheReadEnd))
				return dataOut(t, l, tR, full)
			},
			bytes.Repeat([]byte{0xFF}, full)},
		{"GET FEATURES past P4 on a fresh LUN",
			func(t *testing.T, l *LUN) []byte {
				latches(t, l, 0, onfi.CmdLatch(onfi.CmdGetFeatures), onfi.AddrLatch(byte(onfi.FeatTimingMode)))
				return dataOut(t, l, 0, 12)
			},
			[]byte{nvddr2Mode, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"GET FEATURES past P4 after a cache read",
			func(t *testing.T, l *LUN) []byte {
				seedA0(t, l)
				latches(t, l, 0, readLatches(l, onfi.Addr{}, onfi.CmdRead2)...)
				latches(t, l, tR, onfi.CmdLatch(onfi.CmdCacheReadEnd))
				latches(t, l, tR, onfi.CmdLatch(onfi.CmdGetFeatures), onfi.AddrLatch(byte(onfi.FeatOutputPhase)))
				return dataOut(t, l, tR, 12)
			},
			[]byte{defaultPhase, 0, 0, 0, 0xA0, 0xA0, 0xA0, 0xA0, 0xA0, 0xA0, 0xA0, 0xA0}},
		{"READ PARAMETER PAGE across two copies",
			func(t *testing.T, l *LUN) []byte {
				latches(t, l, 0, onfi.CmdLatch(onfi.CmdReadParameterPg), onfi.AddrLatch(0))
				done := sim.Time(0).Add(tParamPage)
				return append(dataOut(t, l, done, ParamPageSize+ParamPageSize/2), dataOut(t, l, done, ParamPageSize/2)...)
			},
			append(append([]byte{}, param...), param...)},
		{"erased row through READ",
			func(t *testing.T, l *LUN) []byte {
				latches(t, l, 0, readLatches(l, onfi.Addr{Row: onfi.RowAddr{Block: 5, Page: 3}}, onfi.CmdRead2)...)
				return dataOut(t, l, tR, full)
			},
			bytes.Repeat([]byte{0xFF}, full)},
		{"erased row through PeekPage",
			func(t *testing.T, l *LUN) []byte {
				got, err := l.PeekPage(onfi.RowAddr{Block: 5, Page: 3})
				if err != nil {
					t.Fatal(err)
				}
				return got
			},
			bytes.Repeat([]byte{0xFF}, full)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newTestLUN(t)
			if got := c.run(t, l); !bytes.Equal(got, c.want) {
				t.Errorf("got % X\nwant % X", got, c.want)
			}
		})
	}
}

// TestProgrammedFollowsArray pins Programmed through every writer and
// erase: a row reads programmed exactly while the array holds its data.
func TestProgrammedFollowsArray(t *testing.T) {
	l := newTestLUN(t)
	p := l.Params()
	seeded := onfi.RowAddr{Block: 1, Page: 0}
	prog := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 2}}
	other := onfi.RowAddr{Block: 2, Page: 0}
	check := func(step string, want ...bool) {
		t.Helper()
		for i, row := range []onfi.RowAddr{seeded, prog.Row, other} {
			if got := l.Programmed(row); got != want[i] {
				t.Errorf("after %s: Programmed(%+v) = %v, want %v", step, row, got, want[i])
			}
		}
	}
	check("power-on", false, false, false)
	if err := l.SeedPage(seeded, []byte{1}); err != nil {
		t.Fatal(err)
	}
	check("seed", true, false, false)
	latchProgram(t, l, 0, prog, []byte{2})
	now := sim.Time(0).Add(p.TPROG)
	check("program", true, true, false)
	// A refused re-program leaves the row programmed with its old data.
	latchProgram(t, l, now, prog, []byte{3})
	now = now.Add(p.TPROG)
	check("refused re-program", true, true, false)
	latchErase(t, l, now, seeded)
	now = now.Add(p.TBERS)
	check("erase", false, false, false)
	if err := l.SeedPage(seeded, []byte{4}); err != nil {
		t.Fatal(err)
	}
	check("re-seed", true, false, false)
	if got, _ := l.PeekPage(seeded); got[0] != 4 || got[1] != 0 {
		t.Errorf("re-seeded page reads % X…", got[:2])
	}
	if got, _ := l.PeekPage(prog.Row); got[0] != 0xFF {
		t.Errorf("erased programmed page reads % X…", got[:2])
	}
}

// TestErasedPageSharedAcrossGoroutines builds LUNs of two page sizes on
// several goroutines at once, as parallel sweeps do, and reads an erased
// row on each: the shared erased pages are made once per size and read
// as 0xFF everywhere (run under -race, it also checks their registry).
func TestErasedPageSharedAcrossGoroutines(t *testing.T) {
	small, wide := smallParams(), smallParams()
	wide.Geometry.PageBytes *= 2
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		p := small
		if i%2 == 1 {
			p = wide
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := NewLUN(p)
			if err != nil {
				t.Error(err)
				return
			}
			if err := l.Latch(0, readLatches(l, onfi.Addr{Row: onfi.RowAddr{Block: 1}}, onfi.CmdRead2)); err != nil {
				t.Error(err)
				return
			}
			got, err := l.DataOut(l.ReadyAt(), p.Geometry.FullPageBytes())
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, len(got))) {
				t.Errorf("%d-byte page: an erased row reads % X…", len(got), got[:8])
			}
		}()
	}
	wg.Wait()
	if a, b := sharedErased(t, small), sharedErased(t, small); &a[0] != &b[0] {
		t.Error("two LUNs of one page size hold different erased pages")
	}
}

// sharedErased returns the erased page a fresh LUN of p reads from.
func sharedErased(t *testing.T, p Params) []byte {
	t.Helper()
	l, err := NewLUN(p)
	if err != nil {
		t.Fatal(err)
	}
	return l.erasedFF
}
