package nand

import (
	"testing"

	"repro/internal/onfi"
	"repro/internal/sim"
)

// TestAllocGateLUNReadOut is the allocation-regression gate for the
// cell-array read-out path: once warmed, a full READ cycle — latch
// burst, tR wait, DataOutInto a caller buffer — must not allocate.
// The page-register arena and destination-passing read-out are what
// keep this at zero; a regression here silently reintroduces a
// per-page allocation on the hottest simulated path.
func TestAllocGateLUNReadOut(t *testing.T) {
	l := newTestLUN(t)
	g := l.Params().Geometry
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 2}}
	seed := make([]byte, g.PageBytes)
	fillSeed(seed)
	if err := l.SeedPage(addr.Row, seed); err != nil {
		t.Fatal(err)
	}

	var lbuf [8]onfi.Latch
	latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdRead1))
	latches = g.AppendAddrLatches(latches, addr)
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
	dst := make([]byte, g.PageBytes)
	now := sim.Time(0)

	cycle := func() {
		if err := l.Latch(now, latches); err != nil {
			t.Fatal(err)
		}
		now = now.Add(l.Params().TR)
		if err := l.DataOutInto(now, dst); err != nil {
			t.Fatal(err)
		}
		now = now.Add(sim.Microsecond)
	}
	cycle() // warm register/arena state
	if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
		t.Errorf("warmed LUN read-out allocated %.1f objects per page, want 0", avg)
	}
	if dst[0] != seed[0] || dst[len(dst)-1] != seed[len(seed)-1] {
		t.Error("read-out data mismatch")
	}
}

// fillSeed writes a distinctive non-zero pattern for seeding pages in
// allocation-gate tests.
func fillSeed(dst []byte) {
	for i := range dst {
		dst[i] = byte(i*7 + 3)
	}
}

// TestAllocGateLUNMultiPlane extends the gate to the multi-plane path:
// once warmed, a 2-plane read (32h, 30h, then 06h…E0h and data out for
// each plane) and a 2-plane erase followed by a 2-plane program must not
// allocate. Each plane reads into its own register, and the row queues
// keep their storage.
func TestAllocGateLUNMultiPlane(t *testing.T) {
	l, err := NewLUN(twoPlane())
	if err != nil {
		t.Fatal(err)
	}
	p := l.Params()
	g := p.Geometry
	rows := [2]onfi.RowAddr{{Block: 2, Page: 1}, {Block: 3, Page: 1}}
	seed := make([]byte, g.PageBytes)
	fillSeed(seed)
	for _, r := range rows {
		if err := l.SeedPage(r, seed); err != nil {
			t.Fatal(err)
		}
	}
	var qbuf, cbuf, s0buf, s1buf, ebuf [16]onfi.Latch
	queue := g.AppendAddrLatches(append(qbuf[:0], onfi.CmdLatch(onfi.CmdRead1)), onfi.Addr{Row: rows[0]})
	queue = append(queue, onfi.CmdLatch(onfi.CmdMPReadQueue))
	confirm := g.AppendAddrLatches(append(cbuf[:0], onfi.CmdLatch(onfi.CmdRead1)), onfi.Addr{Row: rows[1]})
	confirm = append(confirm, onfi.CmdLatch(onfi.CmdRead2))
	sel := [2][]onfi.Latch{s0buf[:0], s1buf[:0]}
	for i, r := range rows {
		sel[i] = g.AppendAddrLatches(append(sel[i], onfi.CmdLatch(onfi.CmdChangeReadColE1)), onfi.Addr{Row: r})
		sel[i] = append(sel[i], onfi.CmdLatch(onfi.CmdChangeReadCol2))
	}
	dst := make([]byte, g.PageBytes)
	now := sim.Time(0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	read := func() {
		must(l.Latch(now, queue))
		now = now.Add(tDBSY)
		must(l.Latch(now, confirm))
		now = l.ReadyAt()
		for i := range rows {
			must(l.Latch(now, sel[i]))
			must(l.DataOutInto(now, dst))
		}
		now = now.Add(sim.Microsecond)
	}
	read()
	if avg := testing.AllocsPerRun(50, read); avg > 0 {
		t.Errorf("warmed 2-plane read allocated %.1f objects, want 0", avg)
	}
	if dst[0] != seed[0] || dst[len(dst)-1] != seed[len(seed)-1] {
		t.Error("2-plane read-out data mismatch")
	}

	// Erase blocks 0 and 1, then program page 0 of each. Each program
	// takes the page the erase before it released from the LUN's arena.
	erase := ebuf[:0]
	for b := 0; b < 2; b++ {
		erase = g.AppendRowLatches(append(erase, onfi.CmdLatch(onfi.CmdErase1)), onfi.RowAddr{Block: b})
	}
	erase = append(erase, onfi.CmdLatch(onfi.CmdErase2))
	var prog [2][]onfi.Latch
	var pbuf [2][8]onfi.Latch
	for b := range prog {
		prog[b] = g.AppendAddrLatches(append(pbuf[b][:0], onfi.CmdLatch(onfi.CmdProgram1)), onfi.Addr{Row: onfi.RowAddr{Block: b}})
	}
	var c11, c10 [1]onfi.Latch
	c11[0], c10[0] = onfi.CmdLatch(onfi.CmdMPProgramQueue), onfi.CmdLatch(onfi.CmdProgram2)
	cycle := func() {
		must(l.Latch(now, erase))
		now = l.ReadyAt()
		must(l.Latch(now, prog[0]))
		must(l.DataIn(now, seed))
		must(l.Latch(now, c11[:]))
		now = l.ReadyAt()
		must(l.Latch(now, prog[1]))
		must(l.DataIn(now, seed))
		must(l.Latch(now, c10[:]))
		now = l.ReadyAt()
		if s := l.Status(now); s&onfi.StatusFail != 0 {
			t.Fatalf("status %08b", s)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
		t.Errorf("warmed 2-plane erase+program allocated %.1f objects, want 0", avg)
	}
}
