package nand

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/onfi"
	"repro/internal/sim"
)

// smallParams returns a small, fast LUN for protocol tests.
func smallParams() Params {
	p := Hynix()
	p.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 4, PageBytes: 256, SpareBytes: 16}
	p.JitterPct = 0
	return p
}

func newTestLUN(t *testing.T) *LUN {
	t.Helper()
	l, err := NewLUN(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// latchRead drives the full READ command+address+confirm burst.
func latchRead(t *testing.T, l *LUN, now sim.Time, a onfi.Addr) {
	t.Helper()
	var ls []onfi.Latch
	ls = append(ls, onfi.CmdLatch(onfi.CmdRead1))
	ls = append(ls, l.Params().Geometry.AddrLatches(a)...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdRead2))
	if err := l.Latch(now, ls); err != nil {
		t.Fatalf("read latch: %v", err)
	}
}

// latchProgram drives PROGRAM.1+addr, data, PROGRAM.2.
func latchProgram(t *testing.T, l *LUN, now sim.Time, a onfi.Addr, data []byte) {
	t.Helper()
	var ls []onfi.Latch
	ls = append(ls, onfi.CmdLatch(onfi.CmdProgram1))
	ls = append(ls, l.Params().Geometry.AddrLatches(a)...)
	if err := l.Latch(now, ls); err != nil {
		t.Fatalf("program latch: %v", err)
	}
	if err := l.DataIn(now, data); err != nil {
		t.Fatalf("program data: %v", err)
	}
	if err := l.Latch(now, []onfi.Latch{onfi.CmdLatch(onfi.CmdProgram2)}); err != nil {
		t.Fatalf("program confirm: %v", err)
	}
}

// latchErase drives ERASE.1+row+ERASE.2.
func latchErase(t *testing.T, l *LUN, now sim.Time, r onfi.RowAddr) {
	t.Helper()
	var ls []onfi.Latch
	ls = append(ls, onfi.CmdLatch(onfi.CmdErase1))
	ls = append(ls, l.Params().Geometry.RowLatches(r)...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdErase2))
	if err := l.Latch(now, ls); err != nil {
		t.Fatalf("erase latch: %v", err)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", p.Name, err)
		}
	}
	if Hynix().TR != 100*sim.Microsecond {
		t.Error("Hynix tR should be 100us (Table I)")
	}
	if Toshiba().TR != 78*sim.Microsecond {
		t.Error("Toshiba tR should be 78us (Table I)")
	}
	if Micron().TR != 53*sim.Microsecond {
		t.Error("Micron tR should be 53us (Table I)")
	}
	if Micron().LUNsPerChannel != 2 {
		t.Error("Micron is wired for 2 LUNs per channel")
	}
	if Hynix().Geometry.PageBytes != 16384 {
		t.Error("page read size should be 16384 B (Table I)")
	}
}

func TestPresetByName(t *testing.T) {
	if _, err := PresetByName("Hynix"); err != nil {
		t.Error(err)
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := smallParams()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = smallParams()
	bad.TR = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tR accepted")
	}
	bad = smallParams()
	bad.JitterPct = 100
	if err := bad.Validate(); err == nil {
		t.Error("100% jitter accepted")
	}
	bad = smallParams()
	bad.LUNsPerChannel = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero LUNs accepted")
	}
}

func TestReadBusyAndData(t *testing.T) {
	l := newTestLUN(t)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 2, Page: 1}}
	want := bytes.Repeat([]byte{0xAB}, 64)
	if err := l.SeedPage(addr.Row, want); err != nil {
		t.Fatal(err)
	}

	latchRead(t, l, 0, addr)
	if l.Ready(0) {
		t.Fatal("LUN ready immediately after READ confirm")
	}
	if s := l.Status(0); s&onfi.StatusRDY != 0 {
		t.Fatalf("status %08b shows RDY during tR", s)
	}
	// Data out during busy must fail.
	if _, err := l.DataOut(0, 4); err == nil {
		t.Fatal("data out during tR accepted")
	}

	done := sim.Time(0).Add(l.Params().TR)
	if s := l.Status(done); s&onfi.StatusRDY == 0 {
		t.Fatalf("status %08b not RDY after tR", s)
	}
	got, err := l.DataOut(done, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read data mismatch")
	}
	// Sequential data out continues from the column.
	got2, err := l.DataOut(done, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got2 {
		if b != 0 {
			t.Fatal("expected zero padding past seeded data")
		}
	}
}

func TestReadErasedPageIsFF(t *testing.T) {
	l := newTestLUN(t)
	latchRead(t, l, 0, onfi.Addr{})
	done := sim.Time(0).Add(l.Params().TR)
	got, err := l.DataOut(done, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("erased page read %02x, want FF", b)
		}
	}
}

func TestChangeReadColumn(t *testing.T) {
	l := newTestLUN(t)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	if err := l.SeedPage(onfi.RowAddr{}, data); err != nil {
		t.Fatal(err)
	}
	latchRead(t, l, 0, onfi.Addr{})
	done := sim.Time(0).Add(l.Params().TR)

	// CHANGE READ COLUMN to offset 100.
	ls := []onfi.Latch{onfi.CmdLatch(onfi.CmdChangeReadCol1)}
	cb := onfi.EncodeColAddr(100)
	ls = append(ls, onfi.AddrLatch(cb[0]), onfi.AddrLatch(cb[1]), onfi.CmdLatch(onfi.CmdChangeReadCol2))
	if err := l.Latch(done, ls); err != nil {
		t.Fatal(err)
	}
	got, err := l.DataOut(done, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[3] != 103 {
		t.Errorf("column change read %v", got[:4])
	}
}

func TestProgramReadBack(t *testing.T) {
	l := newTestLUN(t)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 0}}
	data := bytes.Repeat([]byte{0x3C}, 256)
	latchProgram(t, l, 0, addr, data)
	if l.Ready(0) {
		t.Fatal("ready during tPROG")
	}
	done := sim.Time(0).Add(l.Params().TPROG)
	if s := l.Status(done); s&onfi.StatusRDY == 0 || s&onfi.StatusFail != 0 {
		t.Fatalf("program status %08b", s)
	}
	latchRead(t, l, done, addr)
	rdone := done.Add(l.Params().TR)
	got, err := l.DataOut(rdone, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("program/read round trip mismatch")
	}
}

// TestChangeWriteColumn patches a page inside one program: 80h…data,
// then 85h plus two column cycles moves the load point with no confirm,
// the next data burst lands there, and 10h programs the merged register.
func TestChangeWriteColumn(t *testing.T) {
	l := newTestLUN(t)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 1}}
	want := bytes.Repeat([]byte{0x3C}, 256)
	ls := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram1)}, l.Params().Geometry.AddrLatches(addr)...)
	if err := l.Latch(0, ls); err != nil {
		t.Fatal(err)
	}
	if err := l.DataIn(0, want); err != nil {
		t.Fatal(err)
	}
	for _, patch := range []struct {
		col  int
		data []byte
	}{{100, []byte{0xA5, 0xA5, 0xA5}}, {10, []byte{0x5A}}, {250, []byte{0x0F, 0xF0}}} {
		cb := onfi.EncodeColAddr(onfi.ColAddr(patch.col))
		ls := []onfi.Latch{onfi.CmdLatch(onfi.CmdChangeWriteCol), onfi.AddrLatch(cb[0]), onfi.AddrLatch(cb[1])}
		if err := l.Latch(0, ls); err != nil {
			t.Fatalf("CHANGE WRITE COLUMN to %d: %v", patch.col, err)
		}
		if err := l.DataIn(0, patch.data); err != nil {
			t.Fatalf("data after CHANGE WRITE COLUMN to %d: %v", patch.col, err)
		}
		copy(want[patch.col:], patch.data)
	}
	if err := l.Latch(0, []onfi.Latch{onfi.CmdLatch(onfi.CmdProgram2)}); err != nil {
		t.Fatalf("program confirm after CHANGE WRITE COLUMN: %v", err)
	}
	done := sim.Time(0).Add(l.Params().TPROG)
	if s := l.Status(done); s&onfi.StatusRDY == 0 || s&onfi.StatusFail != 0 {
		t.Fatalf("program status %08b", s)
	}
	latchRead(t, l, done, addr)
	got, err := l.DataOut(done.Add(l.Params().TR), 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("patched page reads back\n%x\nwant\n%x", got, want)
	}

	// A confirm inside the column cycles, and a column past the page
	// register, are refused.
	next := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 2}}
	ls = append([]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram1)}, l.Params().Geometry.AddrLatches(next)...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdChangeWriteCol), onfi.AddrLatch(0), onfi.CmdLatch(onfi.CmdProgram2))
	if err := l.Latch(done, ls); err == nil {
		t.Error("PROGRAM confirm accepted after one column cycle")
	}
	if err := l.Latch(done, []onfi.Latch{onfi.CmdLatch(onfi.CmdReset)}); err != nil {
		t.Fatal(err)
	}
	ready := done.Add(sim.Millisecond)
	cb := onfi.EncodeColAddr(onfi.ColAddr(l.Params().Geometry.FullPageBytes()))
	ls = append([]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram1)}, l.Params().Geometry.AddrLatches(next)...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdChangeWriteCol), onfi.AddrLatch(cb[0]), onfi.AddrLatch(cb[1]))
	if err := l.Latch(ready, ls); err == nil {
		t.Error("CHANGE WRITE COLUMN past the page register accepted")
	}
}

func TestProgramOverwriteFails(t *testing.T) {
	l := newTestLUN(t)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 2}}
	latchProgram(t, l, 0, addr, []byte{1})
	t1 := sim.Time(0).Add(l.Params().TPROG)
	latchProgram(t, l, t1, addr, []byte{2})
	t2 := t1.Add(l.Params().TPROG)
	if s := l.Status(t2); s&onfi.StatusFail == 0 {
		t.Fatalf("overwrite did not FAIL: status %08b", s)
	}
}

func TestEraseClearsAndAllowsReprogram(t *testing.T) {
	l := newTestLUN(t)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 3, Page: 1}}
	latchProgram(t, l, 0, addr, []byte{0x11})
	t1 := sim.Time(0).Add(l.Params().TPROG)

	latchErase(t, l, t1, onfi.RowAddr{Block: 3})
	t2 := t1.Add(l.Params().TBERS)
	if s := l.Status(t2); s&onfi.StatusRDY == 0 || s&onfi.StatusFail != 0 {
		t.Fatalf("erase status %08b", s)
	}
	if l.EraseCount(3) != 1 {
		t.Errorf("erase count = %d", l.EraseCount(3))
	}
	page, _ := l.PeekPage(addr.Row)
	if page[0] != 0xFF {
		t.Error("erase did not clear the page")
	}
	// Reprogramming after erase succeeds.
	latchProgram(t, l, t2, addr, []byte{0x22})
	t3 := t2.Add(l.Params().TPROG)
	if s := l.Status(t3); s&onfi.StatusFail != 0 {
		t.Fatalf("reprogram after erase failed: %08b", s)
	}
}

func TestEraseWearOut(t *testing.T) {
	p := smallParams()
	p.MaxPECycles = 2
	l, err := NewLUN(p)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for i := 0; i < 3; i++ {
		latchErase(t, l, now, onfi.RowAddr{Block: 0})
		now = now.Add(p.TBERS)
	}
	if !l.Bad(0) {
		t.Error("block not retired after exceeding endurance")
	}
	if s := l.Status(now); s&onfi.StatusFail == 0 {
		t.Errorf("wear-out erase did not FAIL: %08b", s)
	}
}

func TestReadStatusWhileBusy(t *testing.T) {
	l := newTestLUN(t)
	latchRead(t, l, 0, onfi.Addr{})
	// READ STATUS is legal while busy.
	if err := l.Latch(10, []onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}); err != nil {
		t.Fatalf("status latch while busy: %v", err)
	}
	got, err := l.DataOut(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0]&onfi.StatusRDY != 0 {
		t.Error("status shows ready during tR")
	}
	// But a new READ is not.
	if err := l.Latch(10, []onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}); err == nil {
		t.Error("READ.1 accepted while busy")
	}
}

func TestPSLCReadFaster(t *testing.T) {
	l := newTestLUN(t)
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 0, Page: 0}}
	var ls []onfi.Latch
	ls = append(ls, onfi.CmdLatch(onfi.CmdPSLCEnable), onfi.CmdLatch(onfi.CmdRead1))
	ls = append(ls, l.Params().Geometry.AddrLatches(addr)...)
	ls = append(ls, onfi.CmdLatch(onfi.CmdRead2))
	if err := l.Latch(0, ls); err != nil {
		t.Fatal(err)
	}
	slcDone := sim.Time(0).Add(l.Params().TRSLC)
	if !l.Ready(slcDone) {
		t.Error("pSLC read not done after TRSLC")
	}
	if l.Ready(slcDone - 1) {
		t.Error("pSLC read done too early")
	}
}

func TestPSLCUnsupported(t *testing.T) {
	p := smallParams()
	p.TRSLC = 0
	l, _ := NewLUN(p)
	if err := l.Latch(0, []onfi.Latch{onfi.CmdLatch(onfi.CmdPSLCEnable)}); err == nil {
		t.Error("pSLC accepted on a package without support")
	}
}

func TestReadID(t *testing.T) {
	l := newTestLUN(t)
	ls := []onfi.Latch{onfi.CmdLatch(onfi.CmdReadID), onfi.AddrLatch(0)}
	if err := l.Latch(0, ls); err != nil {
		t.Fatal(err)
	}
	got, err := l.DataOut(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAD || got[1] != 0xDE {
		t.Errorf("READ ID = % 02X", got)
	}
}

func TestSetGetFeatures(t *testing.T) {
	l := newTestLUN(t)
	// SET FEATURES on the read-retry register.
	ls := []onfi.Latch{onfi.CmdLatch(onfi.CmdSetFeatures), onfi.AddrLatch(byte(onfi.FeatReadRetry))}
	if err := l.Latch(0, ls); err != nil {
		t.Fatal(err)
	}
	if err := l.DataIn(0, []byte{3, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// GET FEATURES reads it back.
	ls = []onfi.Latch{onfi.CmdLatch(onfi.CmdGetFeatures), onfi.AddrLatch(byte(onfi.FeatReadRetry))}
	if err := l.Latch(0, ls); err != nil {
		t.Fatal(err)
	}
	got, err := l.DataOut(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Errorf("feature readback = %v", got)
	}
	// Wrong data length rejected.
	ls = []onfi.Latch{onfi.CmdLatch(onfi.CmdSetFeatures), onfi.AddrLatch(1)}
	if err := l.Latch(0, ls); err != nil {
		t.Fatal(err)
	}
	if err := l.DataIn(0, []byte{1, 2}); err == nil {
		t.Error("short SET FEATURES data accepted")
	}
}

func TestReset(t *testing.T) {
	l := newTestLUN(t)
	latchRead(t, l, 0, onfi.Addr{})
	if err := l.Latch(10, []onfi.Latch{onfi.CmdLatch(onfi.CmdReset)}); err != nil {
		t.Fatalf("reset while busy: %v", err)
	}
	// Reset from busy takes 500us.
	if l.Ready(sim.Time(400 * sim.Microsecond)) {
		t.Error("ready too early after busy reset")
	}
	if !l.Ready(sim.Time(10).Add(500 * sim.Microsecond)) {
		t.Error("not ready after reset completes")
	}
}

func TestEraseSuspendResume(t *testing.T) {
	l := newTestLUN(t)
	latchErase(t, l, 0, onfi.RowAddr{Block: 0})
	// Suspend mid-erase.
	mid := sim.Time(l.Params().TBERS / 2)
	if err := l.Latch(mid, []onfi.Latch{onfi.CmdLatch(onfi.CmdSuspend)}); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	avail := mid.Add(tSuspend)
	if !l.Ready(avail) {
		t.Fatal("not ready after suspend latency")
	}
	// A read can now run.
	latchRead(t, l, avail, onfi.Addr{Row: onfi.RowAddr{Block: 1}})
	rdone := avail.Add(l.Params().TR)
	if _, err := l.DataOut(rdone, 4); err != nil {
		t.Fatalf("read during suspended erase: %v", err)
	}
	// Resume; remaining half of tBERS must elapse.
	if err := l.Latch(rdone, []onfi.Latch{onfi.CmdLatch(onfi.CmdResume)}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if l.Ready(rdone.Add(l.Params().TBERS/2 - 1)) {
		t.Error("erase finished early after resume")
	}
	if !l.Ready(rdone.Add(l.Params().TBERS / 2)) {
		t.Error("erase not finished after resume + remainder")
	}
	st := l.Stats()
	if st.SuspendCount != 1 || st.ResumeCnt != 1 {
		t.Errorf("suspend/resume stats: %+v", st)
	}
}

// A read served while an erase is suspended reports its own status;
// once resumed, the erase's FAIL is back in the status register.
func TestResumeRestoresSuspendedStatus(t *testing.T) {
	l := newTestLUN(t)
	l.MarkBad(0)
	latchErase(t, l, 0, onfi.RowAddr{Block: 0})
	mid := sim.Time(l.Params().TBERS / 2)
	if err := l.Latch(mid, []onfi.Latch{onfi.CmdLatch(onfi.CmdSuspend)}); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	avail := mid.Add(tSuspend)
	latchRead(t, l, avail, onfi.Addr{Row: onfi.RowAddr{Block: 1}})
	rdone := avail.Add(l.Params().TR)
	if s := l.Status(rdone); s&onfi.StatusFail != 0 {
		t.Errorf("clean read during the suspension reports FAIL: %02X", s)
	}
	if err := l.Latch(rdone, []onfi.Latch{onfi.CmdLatch(onfi.CmdResume)}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if s := l.Status(rdone.Add(l.Params().TBERS)); s&onfi.StatusFail == 0 {
		t.Errorf("resumed erase of a bad block reports no FAIL: %02X", s)
	}
}

func TestSuspendErrors(t *testing.T) {
	l := newTestLUN(t)
	if err := l.Latch(0, []onfi.Latch{onfi.CmdLatch(onfi.CmdSuspend)}); err == nil {
		t.Error("suspend with nothing in flight accepted")
	}
	if err := l.Latch(0, []onfi.Latch{onfi.CmdLatch(onfi.CmdResume)}); err == nil {
		t.Error("resume with nothing suspended accepted")
	}
	// Reads are not suspendable.
	latchRead(t, l, 0, onfi.Addr{})
	if err := l.Latch(1, []onfi.Latch{onfi.CmdLatch(onfi.CmdSuspend)}); err == nil {
		t.Error("suspend of a READ accepted")
	}
}

func TestCacheRead(t *testing.T) {
	l := newTestLUN(t)
	g := l.Params().Geometry
	p0 := bytes.Repeat([]byte{0xA0}, 16)
	p1 := bytes.Repeat([]byte{0xA1}, 16)
	if err := l.SeedPage(onfi.RowAddr{Block: 0, Page: 0}, p0); err != nil {
		t.Fatal(err)
	}
	if err := l.SeedPage(onfi.RowAddr{Block: 0, Page: 1}, p1); err != nil {
		t.Fatal(err)
	}

	// Initial READ of page 0.
	latchRead(t, l, 0, onfi.Addr{})
	t1 := sim.Time(0).Add(l.Params().TR)

	// 0x31: page 0 → cache, start loading page 1.
	if err := l.Latch(t1, []onfi.Latch{onfi.CmdLatch(onfi.CmdCacheRead)}); err != nil {
		t.Fatal(err)
	}
	// Cache data (page 0) is transferable while the array loads page 1.
	if s := l.Status(t1); s&onfi.StatusARDY != 0 {
		t.Errorf("array should be busy: %08b", s)
	}
	got, err := l.DataOut(t1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p0) {
		t.Errorf("cache output = % X, want page0", got[:4])
	}

	// After the array finishes, 0x3F moves page 1 to cache.
	t2 := t1.Add(l.Params().TR)
	if err := l.Latch(t2, []onfi.Latch{onfi.CmdLatch(onfi.CmdCacheReadEnd)}); err != nil {
		t.Fatal(err)
	}
	got, err = l.DataOut(t2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p1) {
		t.Errorf("cache-end output = % X, want page1", got[:4])
	}
	_ = g
}

// TestRefusedCacheReadKeepsCache: a 31h refused at the LUN's last page
// leaves the cache register holding the page it already streams.
func TestRefusedCacheReadKeepsCache(t *testing.T) {
	l := newTestLUN(t)
	g := l.Params().Geometry
	last := g.Pages() - 1
	rowOf := func(i int) onfi.RowAddr { return onfi.RowAddr{Block: i / g.PagesPerBlk, Page: i % g.PagesPerBlk} }
	for i, b := range map[int]byte{last - 1: 0xA0, last: 0xB0} {
		if err := l.SeedPage(rowOf(i), bytes.Repeat([]byte{b}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	latchRead(t, l, 0, onfi.Addr{Row: rowOf(last - 1)})
	t1 := sim.Time(0).Add(l.Params().TR)
	if err := l.Latch(t1, []onfi.Latch{onfi.CmdLatch(onfi.CmdCacheRead)}); err != nil {
		t.Fatal(err)
	}
	t2 := t1.Add(l.Params().TR)
	if err := l.Latch(t2, []onfi.Latch{onfi.CmdLatch(onfi.CmdCacheRead)}); err == nil {
		t.Fatal("cache read past the last page accepted")
	}
	got, err := l.DataOut(t2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte{0xA0}, 16); !bytes.Equal(got, want) {
		t.Errorf("cache data out after the refused 31h = % X, want % X", got, want)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	p := smallParams()
	p.JitterPct = 5
	l, _ := NewLUN(p)
	d1 := l.jitterFor(7, p.TR)
	d2 := l.jitterFor(7, p.TR)
	if d1 != d2 {
		t.Error("jitter not deterministic")
	}
	lo := p.TR - p.TR*5/100
	hi := p.TR + p.TR*5/100
	for row := uint32(0); row < 100; row++ {
		d := l.jitterFor(row, p.TR)
		if d < lo || d > hi {
			t.Fatalf("jitter out of bounds: %v not in [%v,%v]", d, lo, hi)
		}
	}
}

func TestSeedPeekProgrammed(t *testing.T) {
	l := newTestLUN(t)
	row := onfi.RowAddr{Block: 5, Page: 3}
	if l.Programmed(row) {
		t.Error("fresh page reports programmed")
	}
	if err := l.SeedPage(row, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if !l.Programmed(row) {
		t.Error("seeded page not programmed")
	}
	got, err := l.PeekPage(row)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Error("peek mismatch")
	}
	if err := l.SeedPage(onfi.RowAddr{Block: 99}, nil); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := l.PeekPage(onfi.RowAddr{Block: 99}); err == nil {
		t.Error("out-of-range peek accepted")
	}
	big := make([]byte, l.Params().Geometry.FullPageBytes()+1)
	if err := l.SeedPage(row, big); err == nil {
		t.Error("oversized seed accepted")
	}
}

func TestStatsCounters(t *testing.T) {
	l := newTestLUN(t)
	latchRead(t, l, 0, onfi.Addr{})
	now := sim.Time(0).Add(l.Params().TR)
	latchProgram(t, l, now, onfi.Addr{Row: onfi.RowAddr{Block: 1}}, []byte{1})
	now = now.Add(l.Params().TPROG)
	latchErase(t, l, now, onfi.RowAddr{Block: 1})
	st := l.Stats()
	if st.Reads != 1 || st.Programs != 1 || st.Erases != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProtocolErrors(t *testing.T) {
	l := newTestLUN(t)
	// Confirm with no command.
	if err := l.Latch(0, []onfi.Latch{onfi.CmdLatch(onfi.CmdRead2)}); err == nil {
		t.Error("bare READ.2 accepted")
	}
	// Data out with no source.
	l2 := newTestLUN(t)
	if _, err := l2.DataOut(0, 1); err == nil {
		t.Error("data out with no source accepted")
	}
	// Data in outside program.
	if err := l2.DataIn(0, []byte{1}); err == nil {
		t.Error("stray data in accepted")
	}
	if l2.Stats().ProtocolErrors == 0 {
		t.Error("protocol errors not counted")
	}
}

func TestMarkBad(t *testing.T) {
	l := newTestLUN(t)
	l.MarkBad(2)
	if !l.Bad(2) {
		t.Error("MarkBad did not stick")
	}
	latchProgram(t, l, 0, onfi.Addr{Row: onfi.RowAddr{Block: 2}}, []byte{1})
	done := sim.Time(0).Add(l.Params().TPROG)
	if s := l.Status(done); s&onfi.StatusFail == 0 {
		t.Errorf("program to bad block did not FAIL: %08b", s)
	}
	if l.Bad(-1) || l.Bad(100) {
		t.Error("out-of-range Bad() should be false")
	}
}

// TestBlockPageTable programs a block page by page through the ONFI
// protocol, erases it, programs part of it again, seeds only its last
// page, and programs all of it again, with an erase between steps, on a Hynix-size block (256 pages of 18 KiB) and a 16-page one. After
// each step every page of the block reads back, through PeekPage and
// Programmed, as exactly what the array last stored there or as erased,
// and a page seeded in the next block survives every erase.
func TestBlockPageTable(t *testing.T) {
	small := smallParams()
	small.Geometry.PagesPerBlk = 16
	for _, p := range []Params{Hynix(), small} {
		p.JitterPct = 0
		g := p.Geometry
		t.Run(fmt.Sprintf("%dx%dB", g.PagesPerBlk, g.FullPageBytes()), func(t *testing.T) {
			l, err := NewLUN(p)
			if err != nil {
				t.Fatal(err)
			}
			const block = 2
			content := func(page, round int) []byte {
				d := make([]byte, g.FullPageBytes())
				for i := range d {
					d[i] = byte(i*7 + page + 31*round)
				}
				return d
			}
			neighbour := onfi.RowAddr{Block: block + 1, Page: 0}
			if err := l.SeedPage(neighbour, content(0, 9)); err != nil {
				t.Fatal(err)
			}
			erased := bytes.Repeat([]byte{0xFF}, g.FullPageBytes())
			// stored[page] is the round that last programmed it, -1 if erased.
			stored := make([]int, g.PagesPerBlk)
			check := func(step string) {
				t.Helper()
				for page, round := range stored {
					row := onfi.RowAddr{Block: block, Page: page}
					got, err := l.PeekPage(row)
					if err != nil {
						t.Fatal(err)
					}
					want := erased
					if round >= 0 {
						want = content(page, round)
					}
					if l.Programmed(row) != (round >= 0) || !bytes.Equal(got, want) {
						t.Fatalf("%s: page %d reads programmed=%v and bytes %x…, want round %d", step, page, l.Programmed(row), got[:4], round)
					}
				}
				if got, _ := l.PeekPage(neighbour); !bytes.Equal(got, content(0, 9)) {
					t.Fatalf("%s: the next block's seeded page changed", step)
				}
			}
			now := sim.Time(0)
			program := func(round, pages int) {
				for page := 0; page < pages; page++ {
					latchProgram(t, l, now, onfi.Addr{Row: onfi.RowAddr{Block: block, Page: page}}, content(page, round))
					now = l.ReadyAt()
					if s := l.Status(now); s&onfi.StatusFail != 0 {
						t.Fatalf("round %d: program of page %d failed: status %08b", round, page, s)
					}
					stored[page] = round
				}
				check(fmt.Sprintf("round %d, %d pages programmed", round, pages))
			}
			erase := func() {
				latchErase(t, l, now, onfi.RowAddr{Block: block})
				now = l.ReadyAt()
				if s := l.Status(now); s&onfi.StatusFail != 0 {
					t.Fatalf("erase failed: status %08b", s)
				}
				for i := range stored {
					stored[i] = -1
				}
				check("erased")
			}
			erase()
			program(1, g.PagesPerBlk)
			erase()
			program(2, g.PagesPerBlk/2+1)
			erase()
			// Out of order: only the last page, so the table runs past
			// pages that must still read as erased.
			last := g.PagesPerBlk - 1
			if err := l.SeedPage(onfi.RowAddr{Block: block, Page: last}, content(last, 4)); err != nil {
				t.Fatal(err)
			}
			stored[last] = 4
			check("last page seeded")
			erase()
			program(3, g.PagesPerBlk)
		})
	}
}
