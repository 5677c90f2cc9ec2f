package ssd

import (
	"errors"
	"testing"

	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// smallBuild returns a BuildConfig over a small geometry for fast tests.
func smallBuild(kind ControllerKind) BuildConfig {
	p := nand.Hynix()
	p.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 16, PagesPerBlk: 4, PageBytes: 512, SpareBytes: 64}
	p.JitterPct = 0
	// A clean medium: logic tests must not see wear-induced bit errors
	// (the ECC tests re-enable them explicitly).
	p.RawBitErrorPer512B = 0
	// Shrink array times so GC-heavy tests stay fast in virtual time.
	p.TR = 20 * sim.Microsecond
	p.TPROG = 50 * sim.Microsecond
	p.TBERS = 200 * sim.Microsecond
	return BuildConfig{Params: p, Ways: 2, Controller: kind}
}

func mustBuild(t *testing.T, cfg BuildConfig) *Rig {
	t.Helper()
	rig, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return rig
}

func TestBuildDefaults(t *testing.T) {
	rig := mustBuild(t, BuildConfig{Controller: CtrlHW})
	if rig.Channel.Chips() != nand.Hynix().LUNsPerChannel {
		t.Errorf("default ways = %d", rig.Channel.Chips())
	}
	if rig.HW == nil || rig.Babol != nil {
		t.Error("HW build wired wrong controller")
	}
	rtos := mustBuild(t, BuildConfig{Controller: CtrlBabolRTOS})
	if rtos.Babol == nil {
		t.Error("RTOS build missing BABOL controller")
	}
}

func TestControllerKindString(t *testing.T) {
	if CtrlHW.String() != "HW" || CtrlBabolRTOS.String() != "RTOS" || CtrlBabolCoro.String() != "Coro" {
		t.Error("kind names wrong")
	}
}

func TestWriteReadThroughBothControllers(t *testing.T) {
	for _, kind := range []ControllerKind{CtrlHW, CtrlBabolRTOS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rig := mustBuild(t, smallBuild(kind))
			var sequence []error
			rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: 7, Done: func(err error) {
				sequence = append(sequence, err)
				rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: 7, Done: func(err error) {
					sequence = append(sequence, err)
				}})
			}})
			rig.Kernel.Run()
			if len(sequence) != 2 {
				t.Fatalf("completions: %d", len(sequence))
			}
			for i, err := range sequence {
				if err != nil {
					t.Errorf("step %d: %v", i, err)
				}
			}
			// Verify the data actually landed in the array.
			loc, ok := rig.FTL.Lookup(7)
			if !ok {
				t.Fatal("LPN 7 unmapped after write")
			}
			page, err := rig.Channel.Chip(loc.Chip).PeekPage(loc.Row)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 512)
			FillPattern(want, 7)
			for i := range want {
				if page[i] != want[i] {
					t.Fatalf("stored byte %d = %02x, want %02x", i, page[i], want[i])
				}
			}
		})
	}
}

func TestReadUnwrittenCompletesWithoutFlashTraffic(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlHW))
	done := false
	rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: 3, Done: func(err error) {
		if err != nil {
			t.Error(err)
		}
		done = true
	}})
	rig.Kernel.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if rig.Channel.Stats().LatchBursts != 0 {
		t.Error("unwritten read generated flash traffic")
	}
}

func TestPreloadAndWorkload(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlBabolRTOS))
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: 50, QueueDepth: 4, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != 50 || res.Failed != 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.BandwidthMBps(512) <= 0 {
		t.Error("no bandwidth measured")
	}
	if res.MeanLatency() <= 0 || res.LatencyPercentile(99) < res.LatencyPercentile(50) {
		t.Error("latency accounting broken")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	cfg := smallBuild(CtrlHW)
	cfg.Ways = 1
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()

	// Write 4× the logical space: forces steady-state GC.
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical * 4, QueueDepth: 1, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		t.Fatalf("%d writes failed", res.Failed)
	}
	if res.Completed != logical*4 {
		t.Fatalf("completed %d of %d", res.Completed, logical*4)
	}
	st := rig.SSD.Stats()
	if st.GCCycles == 0 {
		t.Error("no GC ran despite 4× overwrite")
	}
	fst := rig.FTL.Stats()
	if fst.WriteAmplification() < 1.0 {
		t.Errorf("WA = %v", fst.WriteAmplification())
	}
	if err := rig.FTL.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All data still readable and correct afterwards.
	verified := 0
	for lpn := 0; lpn < logical; lpn++ {
		lpn := lpn
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
			if err != nil {
				t.Errorf("read LPN %d after GC: %v", lpn, err)
			}
			verified++
		}})
	}
	rig.Kernel.Run()
	if verified != logical {
		t.Fatalf("verified %d of %d", verified, logical)
	}
}

func TestECCPathCorrectsWornReads(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.WithECC = true
	cfg.Params.RawBitErrorPer512B = 0.3
	rig := mustBuild(t, cfg)
	if err := rig.SSD.Preload(8); err != nil {
		t.Fatal(err)
	}
	// Age every block moderately: reads see scattered single-bit errors.
	for c := 0; c < rig.Channel.Chips(); c++ {
		for b := 0; b < cfg.Params.Geometry.BlocksPerLUN; b++ {
			rig.Channel.Chip(c).Wear(b, cfg.Params.MaxPECycles/2)
		}
	}
	failures := 0
	for lpn := 0; lpn < 8; lpn++ {
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
			if err != nil {
				failures++
			}
		}})
	}
	rig.Kernel.Run()
	st := rig.SSD.Stats()
	if st.ECCCorrections == 0 {
		t.Error("ECC corrected nothing on worn blocks")
	}
	if failures != int(st.ECCFailures) {
		t.Errorf("failures=%d but stats say %d", failures, st.ECCFailures)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty SSD config accepted")
	}
	cfg := smallBuild(CtrlHW)
	cfg.Controller = ControllerKind(99)
	if _, err := Build(cfg); err == nil {
		t.Error("unknown controller kind accepted")
	}
}

func TestPreloadValidation(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlHW))
	if err := rig.SSD.Preload(rig.FTL.LogicalPages() + 1); err == nil {
		t.Error("oversized preload accepted")
	}
}

func TestGCWithCopyback(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Ways = 1
	cfg.UseCopyback = true
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical * 4, QueueDepth: 1, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 || res.Completed != logical*4 {
		t.Fatalf("completed %d, failed %d", res.Completed, res.Failed)
	}
	st := rig.SSD.Stats()
	if st.GCCycles == 0 || st.GCCopybacks == 0 {
		t.Errorf("copyback GC did not run: %+v", st)
	}
	if err := rig.FTL.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All data intact after copyback-based GC.
	verified := 0
	for lpn := 0; lpn < logical; lpn++ {
		lpn := lpn
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
			if err != nil {
				t.Errorf("read LPN %d: %v", lpn, err)
			}
			verified++
		}})
	}
	rig.Kernel.Run()
	if verified != logical {
		t.Fatalf("verified %d/%d", verified, logical)
	}
	// And verify content correctness for a sample LPN.
	loc, ok := rig.FTL.Lookup(3)
	if !ok {
		t.Fatal("LPN 3 unmapped")
	}
	page, err := rig.Channel.Chip(loc.Chip).PeekPage(loc.Row)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 512)
	FillPattern(want, 3)
	for i := range want {
		if page[i] != want[i] {
			t.Fatalf("post-copyback content wrong at byte %d", i)
		}
	}
}

func TestCopybackIgnoredOnHWBackend(t *testing.T) {
	// The hardware baseline has no copyback FSM; the flag must fall back
	// to read+program GC without error.
	cfg := smallBuild(CtrlHW)
	cfg.Ways = 1
	cfg.UseCopyback = true
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical * 3, QueueDepth: 1, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		t.Fatalf("%d failed", res.Failed)
	}
	st := rig.SSD.Stats()
	if st.GCCopybacks != 0 {
		t.Error("HW backend claimed copybacks")
	}
	if st.GCCycles == 0 {
		t.Error("fallback GC did not run")
	}
}

// TestSubmitRejectsOutOfRangeLPN is the silent-success regression: a
// read or trim of an LPN outside the drive once completed with nil (an
// unmapped page, a no-op) while only the write failed, in the FTL. All
// three kinds must fail at Submit with ErrLPNOutOfRange, synchronously
// — before any map-cache acquire — with the translation cache on or off.
func TestSubmitRejectsOutOfRangeLPN(t *testing.T) {
	for _, budget := range []int64{0, 2048} {
		cfg := smallBuild(CtrlBabolCoro)
		cfg.MapCacheBytes = budget
		rig := mustBuild(t, cfg)
		logical := rig.FTL.LogicalPages()
		for _, kind := range []hic.Kind{hic.KindRead, hic.KindWrite, hic.KindTrim} {
			for _, lpn := range []int{-1, logical, logical + 12345} {
				var got error
				called := false
				rig.SSD.Submit(hic.Command{Kind: kind, LPN: lpn, Done: func(err error) { called, got = true, err }})
				if !called {
					t.Errorf("cache %d: %s of LPN %d did not complete inside Submit", budget, kind, lpn)
				}
				if !errors.Is(got, ErrLPNOutOfRange) {
					t.Errorf("cache %d: %s of LPN %d = %v, want ErrLPNOutOfRange", budget, kind, lpn, got)
				}
			}
		}
		rig.Kernel.Run()
		if st, cs := rig.SSD.Stats(), rig.FTL.CacheStats(); st.HostReads+st.HostWrites+st.HostTrims != 0 || cs.Hits+cs.Misses != 0 {
			t.Errorf("cache %d: rejected commands reached the drive: %+v, %+v", budget, st, cs)
		}
		// The last in-range page still works.
		got := errors.New("never completed")
		rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: logical - 1, Done: func(err error) { got = err }})
		rig.Kernel.Run()
		if got != nil {
			t.Errorf("cache %d: write of LPN %d: %v", budget, logical-1, got)
		}
	}
}

// TestReplayCountsOutOfRangeAsFailed drives the same rejection through
// the recorded source: the command is counted in Failed and stays out
// of the latency log (on the parent this trace reported 2/2 completed
// with a 0 s median).
func TestReplayCountsOutOfRangeAsFailed(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlBabolRTOS))
	if err := rig.SSD.Preload(8); err != nil {
		t.Fatal(err)
	}
	f, err := hic.NewFrontend(rig.Kernel, rig.SSD, hic.FrontendConfig{Queues: []hic.QueueConfig{{Depth: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hic.Replay(rig.Kernel, f, []obs.Event{
		{Kind: obs.KindHostEnqueue, Chip: -1, TxnID: 5},
		{Time: sim.Time(sim.Microsecond), Kind: obs.KindHostEnqueue, Chip: -1, TxnID: 99999999},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != 1 || res.Failed != 1 || !f.Drained() {
		t.Fatalf("completed=%d failed=%d drained=%v, want 1/1/true", res.Completed, res.Failed, f.Drained())
	}
	if res.LatencyPercentile(50) <= 0 || res.LatencyPercentile(100) != res.LatencyPercentile(50) {
		t.Errorf("latency log p50=%v p100=%v: want the one real read only", res.LatencyPercentile(50), res.LatencyPercentile(100))
	}
	if st := f.Stats(0); st.Failed != 1 {
		t.Errorf("queue stats %+v, want 1 failure", st)
	}
}

// TestFillPatternMatchesFormula pins FillPattern to its definition,
// byte i = byte(lpn>>8) ^ byte(lpn) ^ byte(i), at lengths around the
// 256-byte period it copies, so the write and verify sides of every
// other test cannot drift together.
func TestFillPatternMatchesFormula(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 511, 512, 1000, 16384 + 1664} {
		for _, lpn := range []int{0, 1, 255, 256, 0x1234, 1 << 20} {
			dst := make([]byte, n)
			FillPattern(dst, lpn)
			for i, b := range dst {
				if want := byte(lpn>>8) ^ byte(lpn) ^ byte(i); b != want {
					t.Fatalf("len %d lpn %d: byte %d = %#x, want %#x", n, lpn, i, b, want)
				}
			}
		}
	}
}
