package onfi

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCmdString(t *testing.T) {
	if got := CmdRead1.String(); got != "READ.1" {
		t.Errorf("CmdRead1 = %q", got)
	}
	if got := Cmd(0xAB).String(); got != "CMD(0xAB)" {
		t.Errorf("unknown cmd = %q", got)
	}
}

func TestStatusReady(t *testing.T) {
	if StatusReady&StatusRDY == 0 {
		t.Error("StatusReady must include RDY")
	}
	if StatusReady&StatusFail != 0 {
		t.Error("StatusReady must not include FAIL")
	}
}

func TestLatchConstructors(t *testing.T) {
	l := CmdLatch(CmdReadStatus)
	if l.Kind != LatchCmd || l.Value != 0x70 {
		t.Errorf("CmdLatch = %+v", l)
	}
	a := AddrLatch(0x5A)
	if a.Kind != LatchAddr || a.Value != 0x5A {
		t.Errorf("AddrLatch = %+v", a)
	}
	if LatchCmd.String() != "CMD" || LatchAddr.String() != "ADDR" {
		t.Error("LatchKind strings wrong")
	}
}

func TestDataModeRates(t *testing.T) {
	if SDR.MaxRateMT() != 50 || NVDDR.MaxRateMT() != 200 || NVDDR2.MaxRateMT() != 533 {
		t.Error("mode ceilings wrong")
	}
	for _, m := range []DataMode{SDR, NVDDR, NVDDR2} {
		if m.String() == "" {
			t.Errorf("empty name for mode %d", m)
		}
	}
}

func TestBusConfigValidate(t *testing.T) {
	ok := BusConfig{Mode: NVDDR2, RateMT: 200}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := BusConfig{Mode: SDR, RateMT: 200}
	if err := bad.Validate(); err == nil {
		t.Error("SDR at 200 MT/s accepted")
	}
	if err := (BusConfig{Mode: NVDDR2, RateMT: 0}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestTransferTiming(t *testing.T) {
	c := BusConfig{Mode: NVDDR2, RateMT: 200}
	if p := c.TransferPeriod(); p != 5*sim.Nanosecond {
		t.Errorf("200 MT/s period = %v, want 5ns", p)
	}
	// A 16 KiB page at 200 MT/s is 81.92 µs of pure data time.
	if d := c.DataTime(16384); d != 81920*sim.Nanosecond {
		t.Errorf("page data time = %v, want 81.92us", d)
	}
	c100 := BusConfig{Mode: NVDDR2, RateMT: 100}
	if d := c100.DataTime(16384); d != 163840*sim.Nanosecond {
		t.Errorf("page data time at 100MT = %v", d)
	}
}

func TestLatchSegmentTiming(t *testing.T) {
	tm := DefaultTiming()
	// READ command+address: 2 command latches + 5 address latches = 7 cycles.
	d := tm.LatchSegment(7)
	want := tm.TCS + 7*(tm.TWP+tm.TWH) + tm.TCH + tm.TWB
	if d != want {
		t.Errorf("LatchSegment(7) = %v, want %v", d, want)
	}
	if tm.LatchSegment(0) != 0 {
		t.Error("empty segment should take no time")
	}
}

func TestDataSegmentTiming(t *testing.T) {
	tm := DefaultTiming()
	cfg := BusConfig{Mode: NVDDR2, RateMT: 200}
	d := tm.DataSegment(cfg, 100)
	want := tm.TDQSS + cfg.DataTime(100) + tm.TRPST
	if d != want {
		t.Errorf("DataSegment = %v, want %v", d, want)
	}
	if tm.DataSegment(cfg, 0) != 0 {
		t.Error("empty data segment should take no time")
	}
}

func testGeometry() Geometry {
	return Geometry{Planes: 2, BlocksPerLUN: 1024, PagesPerBlk: 256, PageBytes: 16384, SpareBytes: 1872}
}

func TestGeometryValidate(t *testing.T) {
	if err := testGeometry().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{Planes: 0, BlocksPerLUN: 8, PagesPerBlk: 8, PageBytes: 512},
		{Planes: 2, BlocksPerLUN: 0, PagesPerBlk: 8, PageBytes: 512},
		{Planes: 3, BlocksPerLUN: 8, PagesPerBlk: 8, PageBytes: 512},
		{Planes: 2, BlocksPerLUN: 8, PagesPerBlk: 0, PageBytes: 512},
		{Planes: 2, BlocksPerLUN: 8, PagesPerBlk: 8, PageBytes: 0},
		{Planes: 2, BlocksPerLUN: 8, PagesPerBlk: 8, PageBytes: 512, SpareBytes: -1},
		{Planes: 1, BlocksPerLUN: 131072, PagesPerBlk: 256, PageBytes: 512},
		{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 8, PageBytes: 65536, SpareBytes: 64},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := testGeometry()
	if g.Pages() != 1024*256 {
		t.Errorf("Pages = %d", g.Pages())
	}
	if g.FullPageBytes() != 16384+1872 {
		t.Errorf("FullPageBytes = %d", g.FullPageBytes())
	}
	if g.Capacity() != int64(1024)*256*16384 {
		t.Errorf("Capacity = %d", g.Capacity())
	}
	if g.PlaneOf(0) != 0 || g.PlaneOf(1) != 1 || g.PlaneOf(2) != 0 {
		t.Error("PlaneOf interleave wrong")
	}
}

func TestCheckAddr(t *testing.T) {
	g := testGeometry()
	good := Addr{Row: RowAddr{Block: 1023, Page: 255}, Col: ColAddr(g.FullPageBytes() - 1)}
	if err := g.CheckAddr(good); err != nil {
		t.Errorf("good addr rejected: %v", err)
	}
	bad := []Addr{
		{Row: RowAddr{Block: 1024}},
		{Row: RowAddr{Block: -1}},
		{Row: RowAddr{Page: 256}},
		{Row: RowAddr{Page: -1}},
		{Col: ColAddr(g.FullPageBytes())},
		{Col: -1},
	}
	for i, a := range bad {
		if err := g.CheckAddr(a); err == nil {
			t.Errorf("bad addr %d accepted", i)
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	g := testGeometry()
	f := func(block uint16, page, colLo, colHi uint8) bool {
		a := Addr{
			Row: RowAddr{Block: int(block) % g.BlocksPerLUN, Page: int(page) % g.PagesPerBlk},
			Col: ColAddr(int(uint16(colLo)|uint16(colHi)<<8) % g.FullPageBytes()),
		}
		return g.DecodeAddr(g.EncodeAddr(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowAddrRoundTrip(t *testing.T) {
	g := testGeometry()
	f := func(block uint16, page uint8) bool {
		r := RowAddr{Block: int(block) % g.BlocksPerLUN, Page: int(page) % g.PagesPerBlk}
		return g.DecodeRowAddr(g.EncodeRowAddr(r)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzONFIAddress: for every geometry Validate accepts and every address
// CheckAddr accepts, the five-cycle address and the three-cycle row
// address decode to what was encoded. The seeds straddle the 24-bit row
// and 16-bit column spaces: the last addressable row and column, and
// one geometry past each, whose last page once decoded as block 65535
// and whose last column as 63 — Validate must refuse both.
func FuzzONFIAddress(f *testing.F) {
	seed := func(g Geometry, a Addr) {
		f.Add(uint8(g.Planes), uint32(g.BlocksPerLUN), uint32(g.PagesPerBlk), uint32(g.PageBytes),
			uint32(g.SpareBytes), uint32(a.Row.Block), uint32(a.Row.Page), uint32(a.Col))
	}
	g := testGeometry()
	seed(g, Addr{Row: RowAddr{Block: 1023, Page: 255}, Col: ColAddr(g.FullPageBytes() - 1)})
	seed(Geometry{Planes: 3, BlocksPerLUN: 15, PagesPerBlk: 7, PageBytes: 1000, SpareBytes: 24},
		Addr{Row: RowAddr{Block: 14, Page: 6}, Col: 1023})
	seed(Geometry{Planes: 1, BlocksPerLUN: 65536, PagesPerBlk: 256, PageBytes: 512},
		Addr{Row: RowAddr{Block: 65535, Page: 255}})
	seed(Geometry{Planes: 1, BlocksPerLUN: 131072, PagesPerBlk: 256, PageBytes: 512},
		Addr{Row: RowAddr{Block: 131071, Page: 255}})
	seed(Geometry{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 8, PageBytes: 65472, SpareBytes: 64},
		Addr{Col: 65535})
	seed(Geometry{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 8, PageBytes: 65536, SpareBytes: 64},
		Addr{Col: 65599})
	f.Fuzz(func(t *testing.T, planes uint8, blocks, pages, pageBytes, spare, block, page, col uint32) {
		g := Geometry{Planes: int(planes), BlocksPerLUN: int(blocks), PagesPerBlk: int(pages),
			PageBytes: int(pageBytes), SpareBytes: int(spare)}
		a := Addr{Row: RowAddr{Block: int(block), Page: int(page)}, Col: ColAddr(col)}
		if g.Validate() != nil || g.CheckAddr(a) != nil {
			return
		}
		if got := g.DecodeAddr(g.EncodeAddr(a)); got != a {
			t.Errorf("%+v: address %+v decodes as %+v", g, a, got)
		}
		if got := g.DecodeRowAddr(g.EncodeRowAddr(a.Row)); got != a.Row {
			t.Errorf("%+v: row %+v decodes as %+v", g, a.Row, got)
		}
	})
}

func TestColAddrRoundTrip(t *testing.T) {
	f := func(c uint16) bool {
		return DecodeColAddr(EncodeColAddr(ColAddr(c))) == ColAddr(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrLatches(t *testing.T) {
	g := testGeometry()
	a := Addr{Row: RowAddr{Block: 3, Page: 7}, Col: 0x1234}
	ls := g.AddrLatches(a)
	if len(ls) != 5 {
		t.Fatalf("AddrLatches len = %d", len(ls))
	}
	for _, l := range ls {
		if l.Kind != LatchAddr {
			t.Fatal("AddrLatches produced a non-address latch")
		}
	}
	if ls[0].Value != 0x34 || ls[1].Value != 0x12 {
		t.Errorf("column bytes = %02x %02x", ls[0].Value, ls[1].Value)
	}
	rl := g.RowLatches(RowAddr{Block: 1, Page: 0})
	if len(rl) != 3 {
		t.Fatalf("RowLatches len = %d", len(rl))
	}
	if rl[0].Value != byte(g.PagesPerBlk&0xFF) {
		t.Errorf("row byte 0 = %02x", rl[0].Value)
	}
}

func TestSummarizeLatches(t *testing.T) {
	g := Geometry{Planes: 1, BlocksPerLUN: 16, PagesPerBlk: 16, PageBytes: 512}
	latches := []Latch{CmdLatch(CmdRead1)}
	latches = append(latches, g.AddrLatches(Addr{})...)
	latches = append(latches, CmdLatch(CmdRead2))
	if got := SummarizeLatches(latches); got != "READ.1 ADDR×5 READ.2" {
		t.Errorf("SummarizeLatches = %q", got)
	}
	if got := SummarizeLatches([]Latch{AddrLatch(1)}); got != "ADDR" {
		t.Errorf("single addr = %q", got)
	}
	if got := SummarizeLatches(nil); got != "" {
		t.Errorf("empty = %q", got)
	}
}
