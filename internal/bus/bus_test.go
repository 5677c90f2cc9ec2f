package bus

import (
	"bytes"
	"testing"

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

func newTestChannel(t *testing.T, chips int) (*sim.Kernel, *Channel) {
	t.Helper()
	k := sim.NewKernel()
	ch, err := New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	ch.SetTracer(&obs.Buffer{})
	for i := 0; i < chips; i++ {
		l, err := nand.NewLUN(smallParams())
		if err != nil {
			t.Fatal(err)
		}
		ch.Attach(l)
	}
	return k, ch
}

// pins returns the pin-level events a test channel emitted.
func pins(ch *Channel) []obs.Event { return ch.tr.(*obs.Buffer).Events() }

func TestMaskHelpers(t *testing.T) {
	m := Mask(3)
	if !m.Has(3) || m.Has(2) {
		t.Error("Mask/Has wrong")
	}
	if (Mask(0) | Mask(5)).Count() != 2 {
		t.Error("Count wrong")
	}
	if ChipMask(0).Count() != 0 {
		t.Error("empty count wrong")
	}
	if firstChip(0) != -1 {
		t.Error("firstChip of empty mask should be -1")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	k := sim.NewKernel()
	if _, err := New(k, onfi.BusConfig{Mode: onfi.SDR, RateMT: 500}, onfi.DefaultTiming()); err == nil {
		t.Error("bad bus config accepted")
	}
}

func TestLatchOccupiesChannel(t *testing.T) {
	k, ch := newTestChannel(t, 1)
	end, err := ch.Latch(Mask(0), []onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ch.Timing().LatchSegment(1)
	if end != sim.Time(want) {
		t.Errorf("latch end = %v, want %v", end, want)
	}
	if ch.Free() {
		t.Error("channel free immediately after latch")
	}
	k.RunUntil(end)
	if !ch.Free() {
		t.Error("channel not free after latch end")
	}
}

func TestChainedSegmentsAppend(t *testing.T) {
	_, ch := newTestChannel(t, 1)
	end1, err := ch.Latch(Mask(0), []onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Chained data out (without advancing the kernel) starts at end1.
	data, end2, err := ch.DataOut(Mask(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 {
		t.Fatal("no status byte")
	}
	if end2 <= end1 {
		t.Error("chained segment did not extend the schedule")
	}
	segs := pins(ch)
	if len(segs) != 2 {
		t.Fatalf("captured %d segments", len(segs))
	}
	if segs[1].Start < segs[0].End {
		t.Error("chained segments overlap")
	}
}

func TestStatusIdiom(t *testing.T) {
	_, ch := newTestChannel(t, 1)
	s, end, err := ch.Status(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s&onfi.StatusRDY == 0 {
		t.Errorf("idle LUN status %08b not ready", s)
	}
	if end == 0 {
		t.Error("status took no time")
	}
	// The recorded trace must satisfy the ONFI checker.
	chk := wave.NewChecker(ch.Timing(), ch.Config())
	if vs := chk.Check(pins(ch)); len(vs) != 0 {
		t.Errorf("status waveform violations: %v", vs)
	}
}

func TestFullReadWaveform(t *testing.T) {
	k, ch := newTestChannel(t, 1)
	lun := ch.Chip(0)
	want := bytes.Repeat([]byte{0xC3}, 256)
	if err := lun.SeedPage(onfi.RowAddr{Block: 1, Page: 2}, want); err != nil {
		t.Fatal(err)
	}

	// READ.1 + 5 addr + READ.2
	g := lun.Params().Geometry
	var latches []onfi.Latch
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead1))
	latches = append(latches, g.AddrLatches(onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 2}})...)
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
	end, err := ch.Latch(Mask(0), latches, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Wait out tR.
	k.RunUntil(end.Add(lun.Params().TR))
	data, _, err := ch.DataOut(Mask(0), 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("read data mismatch")
	}
	chk := wave.NewChecker(ch.Timing(), ch.Config())
	if vs := chk.Check(pins(ch)); len(vs) != 0 {
		t.Errorf("read waveform violations: %v", vs)
	}
	st := ch.Stats()
	if st.LatchBursts != 1 || st.DataOutBursts != 1 || st.BytesOut != 256 {
		t.Errorf("stats: %+v", st)
	}
}

func TestGangLatch(t *testing.T) {
	k, ch := newTestChannel(t, 4)
	// Gang an ERASE to chips 1 and 3.
	g := ch.Chip(0).Params().Geometry
	var latches []onfi.Latch
	latches = append(latches, onfi.CmdLatch(onfi.CmdErase1))
	latches = append(latches, g.RowLatches(onfi.RowAddr{Block: 2})...)
	latches = append(latches, onfi.CmdLatch(onfi.CmdErase2))
	end, err := ch.Latch(Mask(1)|Mask(3), latches, 1)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(end.Add(ch.Chip(0).Params().TBERS * 2))
	if ch.Chip(1).EraseCount(2) != 1 || ch.Chip(3).EraseCount(2) != 1 {
		t.Error("gang erase did not reach both chips")
	}
	if ch.Chip(0).EraseCount(2) != 0 || ch.Chip(2).EraseCount(2) != 0 {
		t.Error("gang erase leaked to unselected chips")
	}
}

func TestGangDataIn(t *testing.T) {
	k, ch := newTestChannel(t, 2)
	g := ch.Chip(0).Params().Geometry
	addr := onfi.Addr{Row: onfi.RowAddr{Block: 0, Page: 0}}
	var latches []onfi.Latch
	latches = append(latches, onfi.CmdLatch(onfi.CmdProgram1))
	latches = append(latches, g.AddrLatches(addr)...)
	if _, err := ch.Latch(Mask(0)|Mask(1), latches, 1); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x77}, 64)
	if _, err := ch.DataIn(Mask(0)|Mask(1), payload, 1); err != nil {
		t.Fatal(err)
	}
	end, err := ch.Latch(Mask(0)|Mask(1), []onfi.Latch{onfi.CmdLatch(onfi.CmdProgram2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(end.Add(ch.Chip(0).Params().TPROG * 2))
	for i := 0; i < 2; i++ {
		page, err := ch.Chip(i).PeekPage(addr.Row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page[:64], payload) {
			t.Errorf("chip %d missing replicated data", i)
		}
	}
}

func TestDataOutRejectsGang(t *testing.T) {
	_, ch := newTestChannel(t, 2)
	if _, _, err := ch.DataOut(Mask(0)|Mask(1), 4, 1); err == nil {
		t.Error("gang data out accepted")
	}
}

func TestBadMasksRejected(t *testing.T) {
	_, ch := newTestChannel(t, 1)
	if _, err := ch.Latch(0, []onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}, 1); err == nil {
		t.Error("empty mask accepted")
	}
	if _, err := ch.Latch(Mask(5), []onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}, 1); err == nil {
		t.Error("unattached chip accepted")
	}
	if _, err := ch.Latch(Mask(0), nil, 1); err == nil {
		t.Error("empty latch burst accepted")
	}
	if _, _, err := ch.DataOut(Mask(0), 0, 1); err == nil {
		t.Error("zero-byte data out accepted")
	}
	if _, err := ch.DataIn(Mask(0), nil, 1); err == nil {
		t.Error("empty data in accepted")
	}
	if _, err := ch.Pause(-1, 1); err == nil {
		t.Error("negative pause accepted")
	}
}

func TestPauseOccupies(t *testing.T) {
	k, ch := newTestChannel(t, 1)
	end, err := ch.Pause(150*sim.Nanosecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(150*sim.Nanosecond) {
		t.Errorf("pause end = %v", end)
	}
	if ch.Free() {
		t.Error("channel free during pause")
	}
	k.RunUntil(end)
	if !ch.Free() {
		t.Error("channel busy after pause")
	}
	if ch.Stats().Pauses != 1 {
		t.Error("pause not counted")
	}
}

func TestTransferRateMatters(t *testing.T) {
	k := sim.NewKernel()
	mk := func(rate int) sim.Duration {
		ch, err := New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: rate}, onfi.DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		l, _ := nand.NewLUN(smallParams())
		ch.Attach(l)
		if _, err := ch.Latch(Mask(0), []onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}, 1); err != nil {
			t.Fatal(err)
		}
		start := ch.FreeAt()
		_, end, err := ch.DataOut(Mask(0), 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		return end.Sub(start)
	}
	if fast, slow := mk(200), mk(100); slow <= fast {
		t.Errorf("100 MT/s (%v) should be slower than 200 MT/s (%v)", slow, fast)
	}
}

func TestSDRBootGate(t *testing.T) {
	// A package that powers up in SDR rejects fast data bursts until the
	// boot flow switches its timing mode (§IV-C).
	k := sim.NewKernel()
	ch, err := New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams()
	p.BootInSDR = true
	l, err := nand.NewLUN(p)
	if err != nil {
		t.Fatal(err)
	}
	ch.Attach(l)
	if err := l.SeedPage(onfi.RowAddr{}, []byte{1}); err != nil {
		t.Fatal(err)
	}

	// Command/address latches are mode-agnostic: the READ issues fine.
	g := p.Geometry
	var latches []onfi.Latch
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead1))
	latches = append(latches, g.AddrLatches(onfi.Addr{})...)
	latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
	end, err := ch.Latch(Mask(0), latches, 1)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(end.Add(p.TR))

	// But a 200 MT/s data burst against an SDR-mode part fails.
	if _, _, err := ch.DataOut(Mask(0), 4, 1); err == nil {
		t.Fatal("fast data out against SDR-mode chip accepted")
	}

	// Switch the timing mode via SET FEATURES (still only latches +
	// SDR-legal byte counts in a real flow; here we drive it directly).
	now := k.Now()
	if err := l.Latch(now, []onfi.Latch{
		onfi.CmdLatch(onfi.CmdSetFeatures), onfi.AddrLatch(byte(onfi.FeatTimingMode)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.DataIn(now, []byte{0x15, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if l.MaxRateMT() != onfi.NVDDR2.MaxRateMT() {
		t.Fatalf("MaxRateMT = %d after mode switch", l.MaxRateMT())
	}
	// Fast transfers now pass.
	if _, _, err := ch.DataOut(Mask(0), 4, 1); err != nil {
		t.Fatalf("post-switch data out: %v", err)
	}
}

func TestSetRate(t *testing.T) {
	k := sim.NewKernel()
	ch, err := New(k, onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 50}, onfi.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	l, _ := nand.NewLUN(smallParams())
	ch.Attach(l)
	if err := ch.SetRate(9999); err == nil {
		t.Error("absurd rate accepted")
	}
	if ch.Config().RateMT != 50 {
		t.Error("failed SetRate mutated config")
	}
	slow := ch.Timing().DataSegment(ch.Config(), 256)
	if err := ch.SetRate(200); err != nil {
		t.Fatal(err)
	}
	fast := ch.Timing().DataSegment(ch.Config(), 256)
	if fast >= slow {
		t.Errorf("reclocking did not speed transfers: %v vs %v", fast, slow)
	}
}
