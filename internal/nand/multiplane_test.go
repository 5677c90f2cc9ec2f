package nand

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/onfi"
	"repro/internal/sim"
)

// twoPlane returns a two-plane small geometry.
func twoPlane() Params {
	p := smallParams()
	p.Geometry.Planes = 2
	return p
}

// mpLatchRead queues/confirms a read row with the given confirm command.
func mpLatchRead(t *testing.T, l *LUN, now sim.Time, row onfi.RowAddr, confirm onfi.Cmd) error {
	t.Helper()
	var ls []onfi.Latch
	ls = append(ls, onfi.CmdLatch(onfi.CmdRead1))
	ls = append(ls, l.Params().Geometry.AddrLatches(onfi.Addr{Row: row})...)
	ls = append(ls, onfi.CmdLatch(confirm))
	return l.Latch(now, ls)
}

func TestMPReadProtocol(t *testing.T) {
	l, err := NewLUN(twoPlane())
	if err != nil {
		t.Fatal(err)
	}
	p0 := bytes.Repeat([]byte{0xE0}, 32)
	p1 := bytes.Repeat([]byte{0xE1}, 32)
	if err := l.SeedPage(onfi.RowAddr{Block: 0, Page: 2}, p0); err != nil {
		t.Fatal(err)
	}
	if err := l.SeedPage(onfi.RowAddr{Block: 1, Page: 2}, p1); err != nil {
		t.Fatal(err)
	}

	// Queue plane 0 with 32h: short tDBSY busy.
	if err := mpLatchRead(t, l, 0, onfi.RowAddr{Block: 0, Page: 2}, onfi.CmdMPReadQueue); err != nil {
		t.Fatal(err)
	}
	if l.Ready(0) {
		t.Fatal("ready during tDBSY")
	}
	t1 := sim.Time(tDBSY)
	if !l.Ready(t1) {
		t.Fatal("not ready after tDBSY")
	}
	// Confirm plane 1 with 30h: shared tR.
	if err := mpLatchRead(t, l, t1, onfi.RowAddr{Block: 1, Page: 2}, onfi.CmdRead2); err != nil {
		t.Fatal(err)
	}
	t2 := t1.Add(2 * l.Params().TR)

	// Plane select with 06h…E0h and stream each plane.
	selectPlane := func(now sim.Time, row onfi.RowAddr) {
		t.Helper()
		var ls []onfi.Latch
		ls = append(ls, onfi.CmdLatch(onfi.CmdChangeReadColE1))
		ls = append(ls, l.Params().Geometry.AddrLatches(onfi.Addr{Row: row})...)
		ls = append(ls, onfi.CmdLatch(onfi.CmdChangeReadCol2))
		if err := l.Latch(now, ls); err != nil {
			t.Fatal(err)
		}
	}
	selectPlane(t2, onfi.RowAddr{Block: 1, Page: 2})
	got, err := l.DataOut(t2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p1) {
		t.Errorf("plane 1 data % X", got[:4])
	}
	selectPlane(t2, onfi.RowAddr{Block: 0, Page: 2})
	got, err = l.DataOut(t2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p0) {
		t.Errorf("plane 0 data % X", got[:4])
	}
}

func TestMPReadPlaneReuseRejected(t *testing.T) {
	l, _ := NewLUN(twoPlane())
	if err := mpLatchRead(t, l, 0, onfi.RowAddr{Block: 0}, onfi.CmdMPReadQueue); err != nil {
		t.Fatal(err)
	}
	now := sim.Time(tDBSY)
	// Block 2 is also plane 0: queueing it again must error.
	if err := mpLatchRead(t, l, now, onfi.RowAddr{Block: 2}, onfi.CmdMPReadQueue); err == nil {
		t.Error("plane reuse in queue accepted")
	}
	// Fresh LUN: confirm on the queued plane also errors.
	l2, _ := NewLUN(twoPlane())
	if err := mpLatchRead(t, l2, 0, onfi.RowAddr{Block: 0}, onfi.CmdMPReadQueue); err != nil {
		t.Fatal(err)
	}
	if err := mpLatchRead(t, l2, sim.Time(tDBSY), onfi.RowAddr{Block: 2}, onfi.CmdRead2); err == nil {
		t.Error("plane reuse at confirm accepted")
	}
}

func TestSelectPlaneErrors(t *testing.T) {
	l, _ := NewLUN(twoPlane())
	g := l.Params().Geometry
	sel := func(now sim.Time, row onfi.RowAddr) error {
		var ls []onfi.Latch
		ls = append(ls, onfi.CmdLatch(onfi.CmdChangeReadColE1))
		ls = append(ls, g.AddrLatches(onfi.Addr{Row: row})...)
		ls = append(ls, onfi.CmdLatch(onfi.CmdChangeReadCol2))
		return l.Latch(now, ls)
	}
	// No multi-plane data loaded at all.
	if err := sel(0, onfi.RowAddr{Block: 0}); err == nil {
		t.Error("plane select with no loaded data accepted")
	}
	// Load planes, then select a plane that wasn't part of the read:
	// both planes WERE loaded here, so use a single-plane setup instead.
	l2, _ := NewLUN(twoPlane())
	if err := mpLatchRead(t, l2, 0, onfi.RowAddr{Block: 0}, onfi.CmdMPReadQueue); err != nil {
		t.Fatal(err)
	}
	if err := mpLatchRead(t, l2, sim.Time(tDBSY), onfi.RowAddr{Block: 1}, onfi.CmdRead2); err != nil {
		t.Fatal(err)
	}
	// Wrong confirm command after 06h.
	done := sim.Time(tDBSY).Add(2 * l2.Params().TR)
	var ls []onfi.Latch
	ls = append(ls, onfi.CmdLatch(onfi.CmdChangeReadColE1))
	ls = append(ls, g.AddrLatches(onfi.Addr{Row: onfi.RowAddr{Block: 0}})...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdReadStatus))
	// READ STATUS is always legal and interrupts the sequence; the stale
	// decPlaneSelAddr state must then reject a confirm with a fresh error
	// rather than wedge.
	if err := l2.Latch(done, ls); err != nil {
		t.Logf("interrupting sequence: %v (acceptable)", err)
	}
}

func TestMPProgramProtocol(t *testing.T) {
	l, _ := NewLUN(twoPlane())
	g := l.Params().Geometry
	stage := func(now sim.Time, row onfi.RowAddr, fill byte, confirm onfi.Cmd) {
		t.Helper()
		var ls []onfi.Latch
		ls = append(ls, onfi.CmdLatch(onfi.CmdProgram1))
		ls = append(ls, g.AddrLatches(onfi.Addr{Row: row})...)
		if err := l.Latch(now, ls); err != nil {
			t.Fatal(err)
		}
		if err := l.DataIn(now, bytes.Repeat([]byte{fill}, 16)); err != nil {
			t.Fatal(err)
		}
		if err := l.Latch(now, []onfi.Latch{onfi.CmdLatch(confirm)}); err != nil {
			t.Fatal(err)
		}
	}
	stage(0, onfi.RowAddr{Block: 0, Page: 1}, 0x71, onfi.CmdMPProgramQueue)
	t1 := sim.Time(tDBSY)
	stage(t1, onfi.RowAddr{Block: 1, Page: 1}, 0x72, onfi.CmdProgram2)
	done := t1.Add(2 * l.Params().TPROG)
	if s := l.Status(done); s&onfi.StatusRDY == 0 || s&onfi.StatusFail != 0 {
		t.Fatalf("status %08b", s)
	}
	pg0, _ := l.PeekPage(onfi.RowAddr{Block: 0, Page: 1})
	pg1, _ := l.PeekPage(onfi.RowAddr{Block: 1, Page: 1})
	if pg0[0] != 0x71 || pg1[0] != 0x72 {
		t.Errorf("plane contents %02x %02x", pg0[0], pg1[0])
	}
	// Shared tPROG: not ready halfway through one tPROG? It IS one
	// tPROG total; halfway must still be busy.
	if l.Ready(t1.Add(l.Params().TPROG / 2)) {
		t.Error("multi-plane program finished in half a tPROG")
	}
}

func TestMPEraseProtocol(t *testing.T) {
	l, _ := NewLUN(twoPlane())
	g := l.Params().Geometry
	l.SeedPage(onfi.RowAddr{Block: 2}, []byte{1})
	l.SeedPage(onfi.RowAddr{Block: 3}, []byte{1})
	var ls []onfi.Latch
	ls = append(ls, onfi.CmdLatch(onfi.CmdErase1))
	ls = append(ls, g.RowLatches(onfi.RowAddr{Block: 2})...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdErase1))
	ls = append(ls, g.RowLatches(onfi.RowAddr{Block: 3})...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdErase2))
	if err := l.Latch(0, ls); err != nil {
		t.Fatal(err)
	}
	done := sim.Time(0).Add(2 * l.Params().TBERS)
	if s := l.Status(done); s&onfi.StatusFail != 0 {
		t.Fatalf("status %08b", s)
	}
	if l.EraseCount(2) != 1 || l.EraseCount(3) != 1 {
		t.Error("both planes should be erased once")
	}
	p2, _ := l.PeekPage(onfi.RowAddr{Block: 2})
	if p2[0] != 0xFF {
		t.Error("block 2 not erased")
	}
}

// mpOp drives one 2-plane array operation through the decoder.
type mpOp struct {
	name string
	// base is the op's nominal array time; jitterRow maps a row to the
	// row its jitter is drawn for (erase draws for the block's first page).
	base      func(Params) sim.Duration
	jitterRow func(g onfi.Geometry, r onfi.RowAddr) uint32
	// dbsy is the busy window after the queued row.
	dbsy  sim.Duration
	count func(Stats) uint64
	// queue latches the plane-0 row; confirm latches the plane-1 row and
	// starts the array.
	queue, confirm func(l *LUN, now sim.Time, r onfi.RowAddr) error
}

// mpFill is the byte a pinned test seeds or programs on plane p.
func mpFill(p int) byte { return 0xA0 | byte(p) }

func mpOps() []mpOp {
	addr := func(l *LUN, r onfi.RowAddr) []onfi.Latch { return l.Params().Geometry.AddrLatches(onfi.Addr{Row: r}) }
	read := func(confirm onfi.Cmd) func(*LUN, sim.Time, onfi.RowAddr) error {
		return func(l *LUN, now sim.Time, r onfi.RowAddr) error {
			ls := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, addr(l, r)...)
			return l.Latch(now, append(ls, onfi.CmdLatch(confirm)))
		}
	}
	program := func(confirm onfi.Cmd) func(*LUN, sim.Time, onfi.RowAddr) error {
		return func(l *LUN, now sim.Time, r onfi.RowAddr) error {
			if err := l.Latch(now, append([]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram1)}, addr(l, r)...)); err != nil {
				return err
			}
			if err := l.DataIn(now, bytes.Repeat([]byte{mpFill(l.Params().Geometry.PlaneOf(r.Block))}, 16)); err != nil {
				return err
			}
			return l.Latch(now, []onfi.Latch{onfi.CmdLatch(confirm)})
		}
	}
	erase := func(tail ...onfi.Latch) func(*LUN, sim.Time, onfi.RowAddr) error {
		return func(l *LUN, now sim.Time, r onfi.RowAddr) error {
			ls := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdErase1)}, l.Params().Geometry.RowLatches(r)...)
			return l.Latch(now, append(ls, tail...))
		}
	}
	pageRow := func(g onfi.Geometry, r onfi.RowAddr) uint32 {
		return uint32(r.Block*g.PagesPerBlk + r.Page)
	}
	return []mpOp{
		{name: "read", base: func(p Params) sim.Duration { return p.TR }, jitterRow: pageRow, dbsy: tDBSY,
			count: func(s Stats) uint64 { return s.Reads }, queue: read(onfi.CmdMPReadQueue), confirm: read(onfi.CmdRead2)},
		{name: "program", base: func(p Params) sim.Duration { return p.TPROG }, jitterRow: pageRow, dbsy: tDBSY,
			count: func(s Stats) uint64 { return s.Programs }, queue: program(onfi.CmdMPProgramQueue), confirm: program(onfi.CmdProgram2)},
		{name: "erase", base: func(p Params) sim.Duration { return p.TBERS },
			jitterRow: func(g onfi.Geometry, r onfi.RowAddr) uint32 { return uint32(r.Block * g.PagesPerBlk) },
			count:     func(s Stats) uint64 { return s.Erases }, queue: erase(), confirm: erase(onfi.CmdLatch(onfi.CmdErase2))},
	}
}

// mpPlaneBytes reads rows (one per plane) with a 2-plane read and returns
// what 06h…E0h streams for each plane.
func mpPlaneBytes(t *testing.T, l *LUN, now sim.Time, rows [2]onfi.RowAddr) (sim.Time, [2][]byte) {
	t.Helper()
	if err := mpLatchRead(t, l, now, rows[0], onfi.CmdMPReadQueue); err != nil {
		t.Fatal(err)
	}
	now = now.Add(tDBSY)
	if err := mpLatchRead(t, l, now, rows[1], onfi.CmdRead2); err != nil {
		t.Fatal(err)
	}
	now = l.ReadyAt()
	var out [2][]byte
	for i, r := range rows {
		ls := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdChangeReadColE1)}, l.Params().Geometry.AddrLatches(onfi.Addr{Row: r})...)
		if err := l.Latch(now, append(ls, onfi.CmdLatch(onfi.CmdChangeReadCol2))); err != nil {
			t.Fatal(err)
		}
		data, err := l.DataOut(now, l.Params().Geometry.FullPageBytes())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return now, out
}

// TestMPArrayOpsPinned pins a 2-plane read, program and erase with jitter
// on: the tDBSY after the queued row, then one shared array time — the
// slower row's jittered tR/tPROG/tBERS, picked here so that the queued
// row is the slower one — each plane's bytes through 06h…E0h, one Stats
// count per row, and FAIL, with the good plane's work done, when either
// plane's block is bad.
func TestMPArrayOpsPinned(t *testing.T) {
	p := twoPlane()
	p.JitterPct = 5
	p.RawBitErrorPer512B = 0 // erased rows read back as 0xFF
	g := p.Geometry
	full := g.FullPageBytes()
	for _, op := range mpOps() {
		// The first plane-0/plane-1 pair whose queued row jitters slower.
		probe, _ := NewLUN(p)
		var rows [2]onfi.RowAddr
		var worst sim.Duration
	pick:
		for q := (onfi.RowAddr{}); q.Block < g.BlocksPerLUN; q.Block += 2 {
			for c := (onfi.RowAddr{Block: 1}); c.Block < g.BlocksPerLUN; c.Block += 2 {
				for q.Page = 0; q.Page < g.PagesPerBlk; q.Page++ {
					for c.Page = 0; c.Page < g.PagesPerBlk; c.Page++ {
						jq, jc := probe.jitterFor(op.jitterRow(g, q), op.base(p)), probe.jitterFor(op.jitterRow(g, c), op.base(p))
						if jq > jc {
							rows, worst = [2]onfi.RowAddr{q, c}, jq
							break pick
						}
					}
				}
			}
		}
		if worst == 0 {
			t.Fatalf("%s: no row pair whose queued row is slower", op.name)
		}
		// want is each plane's content after the op.
		var want [2][]byte
		setup := func(l *LUN) {
			for i, r := range rows {
				switch op.name {
				case "read":
					want[i] = bytes.Repeat([]byte{mpFill(i)}, full)
					l.SeedPage(r, want[i])
				case "program":
					// 80h fills the register with 0xFF; DataIn overwrites 16 bytes.
					want[i] = append(bytes.Repeat([]byte{mpFill(i)}, 16), bytes.Repeat([]byte{0xFF}, full-16)...)
				case "erase":
					l.SeedPage(r, []byte{mpFill(i)})
					want[i] = bytes.Repeat([]byte{0xFF}, full)
				}
			}
		}

		t.Run(op.name, func(t *testing.T) {
			l, _ := NewLUN(p)
			setup(l)
			before := op.count(l.Stats())
			if err := op.queue(l, 0, rows[0]); err != nil {
				t.Fatal(err)
			}
			t1 := sim.Time(op.dbsy)
			if op.dbsy > 0 && l.Ready(t1-1) {
				t.Fatal("ready before tDBSY ends")
			}
			if !l.Ready(t1) {
				t.Fatal("busy after tDBSY")
			}
			if err := op.confirm(l, t1, rows[1]); err != nil {
				t.Fatal(err)
			}
			done := t1.Add(worst)
			if l.Ready(done-1) || !l.Ready(done) || l.ReadyAt() != done {
				t.Fatalf("ready at %v, want %v (the queued row's jittered time)", l.ReadyAt(), done)
			}
			if s := l.Status(done); s&onfi.StatusFail != 0 {
				t.Fatalf("status %08b", s)
			}
			if got := op.count(l.Stats()) - before; got != 2 {
				t.Errorf("%s count rose by %d, want 2", op.name, got)
			}
			var got [2][]byte
			if op.name == "read" {
				for i, r := range rows {
					ls := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdChangeReadColE1)}, g.AddrLatches(onfi.Addr{Row: r})...)
					if err := l.Latch(done, append(ls, onfi.CmdLatch(onfi.CmdChangeReadCol2))); err != nil {
						t.Fatal(err)
					}
					got[i], _ = l.DataOut(done, full)
				}
			} else {
				_, got = mpPlaneBytes(t, l, done, rows)
			}
			for i := range rows {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("plane %d reads % X…, want % X…", i, got[i][:4], want[i][:4])
				}
			}
		})

		for badPlane := range rows {
			t.Run(op.name+"/bad-plane-"+string(rune('0'+badPlane)), func(t *testing.T) {
				l, _ := NewLUN(p)
				setup(l)
				l.MarkBad(rows[badPlane].Block)
				if err := op.queue(l, 0, rows[0]); err != nil {
					t.Fatal(err)
				}
				t1 := sim.Time(op.dbsy)
				if err := op.confirm(l, t1, rows[1]); err != nil {
					t.Fatal(err)
				}
				done := t1.Add(worst)
				fail := l.Status(done)&onfi.StatusFail != 0
				if fail != (op.name != "read") {
					t.Fatalf("FAIL %v with plane %d's block bad", fail, badPlane)
				}
				good := rows[1-badPlane]
				pg, _ := l.PeekPage(good)
				if !bytes.Equal(pg, want[1-badPlane]) {
					t.Errorf("good plane holds % X…, want % X…", pg[:4], want[1-badPlane][:4])
				}
				if op.name != "read" {
					bad, _ := l.PeekPage(rows[badPlane])
					if bytes.Equal(bad, want[badPlane]) {
						t.Errorf("bad plane's block changed")
					}
				}
			})
		}
	}
}

// A queued ERASE row past the last block is refused as a protocol error,
// not indexed.
func TestMPEraseQueuedBlockOutOfRange(t *testing.T) {
	l, _ := NewLUN(twoPlane())
	g := l.Params().Geometry
	ls := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdErase1)}, g.RowLatches(onfi.RowAddr{Block: g.BlocksPerLUN + 1})...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdErase1))
	ls = append(ls, g.RowLatches(onfi.RowAddr{Block: 0})...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdErase2))
	err := l.Latch(0, ls)
	if err == nil || !strings.Contains(err.Error(), "multi-plane erase block 9 out of range") {
		t.Fatalf("got %v, want multi-plane erase block 9 out of range", err)
	}
}

// stageMPProgram latches 80h, row, 16 bytes of fill and confirm.
func stageMPProgram(t *testing.T, l *LUN, now sim.Time, row onfi.RowAddr, fill byte, confirm onfi.Cmd) {
	t.Helper()
	if err := l.Latch(now, append([]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram1)}, l.Params().Geometry.AddrLatches(onfi.Addr{Row: row})...)); err != nil {
		t.Fatal(err)
	}
	if err := l.DataIn(now, bytes.Repeat([]byte{fill}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := l.Latch(now, []onfi.Latch{onfi.CmdLatch(confirm)}); err != nil {
		t.Fatal(err)
	}
}

// An A2h ahead of the confirming plane runs the 2-plane program in pSLC
// and is consumed by it: the next READ takes the full tR.
func TestMPProgramConsumesPSLC(t *testing.T) {
	l, _ := NewLUN(twoPlane())
	p := l.Params()
	stageMPProgram(t, l, 0, onfi.RowAddr{Block: 0}, 0x10, onfi.CmdMPProgramQueue)
	t1 := sim.Time(tDBSY)
	if err := l.Latch(t1, []onfi.Latch{onfi.CmdLatch(onfi.CmdPSLCEnable)}); err != nil {
		t.Fatal(err)
	}
	stageMPProgram(t, l, t1, onfi.RowAddr{Block: 1}, 0x11, onfi.CmdProgram2)
	if got := l.ReadyAt().Sub(t1); got != p.TPROGSLC {
		t.Fatalf("pSLC 2-plane program took %v, want tPROG_SLC %v", got, p.TPROGSLC)
	}
	t2 := l.ReadyAt()
	latchRead(t, l, t2, onfi.Addr{Row: onfi.RowAddr{Block: 0}})
	if got := l.ReadyAt().Sub(t2); got != p.TR {
		t.Fatalf("READ after the pSLC program took %v, want tR %v", got, p.TR)
	}
}

// failPrograms fails every PROGRAM it is asked about.
type failPrograms struct{ calls int }

func (f *failPrograms) OnRead(sim.Time, uint32) FaultOutcome { return FaultOutcome{} }
func (f *failPrograms) OnProgram(sim.Time, uint32) FaultOutcome {
	f.calls++
	return FaultOutcome{Fail: true}
}
func (f *failPrograms) OnErase(sim.Time, int) FaultOutcome { return FaultOutcome{} }
func (f *failPrograms) OnReset(sim.Time) bool              { return false }

// The fault injector is asked once per 2-plane program, for the
// confirming row: an injected failure raises FAIL and leaves that row
// unprogrammed.
func TestMPProgramFaultInjected(t *testing.T) {
	l, _ := NewLUN(twoPlane())
	fi := &failPrograms{}
	l.SetFaults(fi)
	stageMPProgram(t, l, 0, onfi.RowAddr{Block: 0}, 0x10, onfi.CmdMPProgramQueue)
	stageMPProgram(t, l, sim.Time(tDBSY), onfi.RowAddr{Block: 1}, 0x11, onfi.CmdProgram2)
	if s := l.Status(l.ReadyAt()); s&onfi.StatusFail == 0 {
		t.Errorf("status %08b: injected program failure not reported", s)
	}
	if l.Programmed(onfi.RowAddr{Block: 1}) {
		t.Error("confirming row programmed despite the injected failure")
	}
	if fi.calls != 1 {
		t.Errorf("injector asked %d times, want once", fi.calls)
	}
}
