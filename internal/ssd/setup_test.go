package ssd

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/nand"
	"repro/internal/sim"
)

// The rig shapes the benchmark ledger builds and preloads before every
// run (benchmark/workload.go): the one-channel 1×8 read rig and the full
// 8×8 read drive, both on the Hynix package shrunk to 16 blocks per LUN,
// and the small fast 2×4 tenant drive with a 2 KiB map cache.

const (
	chanSetupPreload   = 64
	driveSetupPreload  = 512
	tenantSetupPreload = 4 * 1900
)

func chanSetupConfig() BuildConfig {
	cfg := driveSetupConfig()
	cfg.Channels = 1
	return cfg
}

func driveSetupConfig() BuildConfig {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	return BuildConfig{
		Params: p, Channels: 8, Ways: 8, RateMT: 200,
		Controller: CtrlBabolRTOS, CPUMHz: 1000,
	}
}

func tenantSetupConfig() BuildConfig {
	p := nand.Hynix()
	p.Geometry.Planes = 1
	p.Geometry.BlocksPerLUN = 64
	p.Geometry.PagesPerBlk = 16
	p.Geometry.PageBytes = 512
	p.Geometry.SpareBytes = 64
	p.TR = 20 * sim.Microsecond
	p.TPROG = 50 * sim.Microsecond
	p.TBERS = 200 * sim.Microsecond
	p.JitterPct = 0
	p.RawBitErrorPer512B = 0
	return BuildConfig{
		Params: p, Channels: 2, Ways: 4, RateMT: 200,
		Controller: CtrlBabolRTOS, CPUMHz: 1000, MapCacheBytes: 2048,
	}
}

// buildPreloaded builds cfg and preloads its first n LPNs: one set-up.
func buildPreloaded(tb testing.TB, cfg BuildConfig, n int) *Rig {
	tb.Helper()
	rig, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := rig.SSD.Preload(n); err != nil {
		tb.Fatal(err)
	}
	return rig
}

// BenchmarkRigSetup times one set-up of each ledger rig shape: Build,
// then Preload, then Close.
func BenchmarkRigSetup(b *testing.B) {
	for _, s := range []struct {
		name    string
		cfg     BuildConfig
		preload int
	}{
		{"chan-1x8", chanSetupConfig(), chanSetupPreload},
		{"drive-8x8", driveSetupConfig(), driveSetupPreload},
		{"tenant-2x4", tenantSetupConfig(), tenantSetupPreload},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildPreloaded(b, s.cfg, s.preload).Close()
			}
		})
	}
}

// TestRigArraysOutliveClose builds, preloads and closes the 8×8 drive as
// many times as the ledger's set-up child does in one process. Close
// must stop every goroutine a rig started, and must leave its LUN arrays
// readable: a caller may inspect a closed rig's flash, and exp's chaos
// run verifies its data that way after the rig is closed.
func TestRigArraysOutliveClose(t *testing.T) {
	const setups = 45
	base := runtime.NumGoroutine()
	var rig *Rig
	for i := 0; i < setups; i++ {
		rig = buildPreloaded(t, driveSetupConfig(), driveSetupPreload)
		rig.Close()
	}
	// Pool goroutines finish after Close returns; wait for them, but
	// give up with a margin before the test binary's own deadline.
	limit := time.Now().Add(10 * time.Second)
	if d, ok := t.Deadline(); ok && d.Add(-time.Second).Before(limit) {
		limit = d.Add(-time.Second)
	}
	for runtime.NumGoroutine() > base {
		if time.Now().After(limit) {
			t.Fatalf("%d goroutines after %d closed set-ups, %d before", runtime.NumGoroutine(), setups, base)
		}
		time.Sleep(time.Millisecond)
	}
	pageBytes := driveSetupConfig().Params.Geometry.PageBytes
	want := make([]byte, pageBytes)
	for lpn := 0; lpn < driveSetupPreload; lpn++ {
		loc, ok := rig.FTL.Lookup(lpn)
		if !ok {
			t.Fatalf("preloaded LPN %d unmapped", lpn)
		}
		got, err := rig.SSD.lun(loc.Chip).PeekPage(loc.Row)
		if err != nil {
			t.Fatal(err)
		}
		FillPattern(want, lpn)
		if !bytes.Equal(got[:pageBytes], want) {
			t.Fatalf("LPN %d no longer reads its pattern after Close", lpn)
		}
	}
}

// TestAllocGateRigSetup bounds what one set-up allocates. A LUN makes
// its registers, load buffer and parameter page at first use and shares
// one erased and one zero page per page size, and the DRAM buffer is
// backed at its first touch, so the 8×8 drive's set-up is the 9.3 MB of
// pages it preloads and little else, and a fresh LUN holds its per-block
// wear and bad-block state and small change. The tenant drive's small
// pages come 28 to a slab, so its set-up is counted in objects.
func TestAllocGateRigSetup(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// measure reports the bytes and objects fn allocates. Every LUN owns
	// a fresh arena, so no page of an earlier rig can flatter the count.
	measure := func(fn func()) (bytes, objects uint64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	totalAlloc := func(fn func()) uint64 {
		bytes, _ := measure(fn)
		return bytes
	}

	const driveBudget = 10_500_000
	var rig *Rig
	got := totalAlloc(func() { rig = buildPreloaded(t, driveSetupConfig(), driveSetupPreload) })
	rig.Close()
	t.Logf("8x8 drive Build+Preload(%d): %d bytes", driveSetupPreload, got)
	if got > driveBudget {
		t.Errorf("8x8 drive set-up allocated %d bytes, budget %d", got, driveBudget)
	}

	// Build makes ≈250 objects; the 7,600 preloaded pages ≈610 slabs'
	// handles and payloads, ≈490 block page tables and ≈170 objects of
	// the FTL's own state (its reverse maps come 6 slabs to a chip). Two
	// objects per page would be ≈16,000.
	const tenantBudget = 1650
	_, objects := measure(func() { rig = buildPreloaded(t, tenantSetupConfig(), tenantSetupPreload) })
	rig.Close()
	t.Logf("2x4 tenant drive Build+Preload(%d): %d objects", tenantSetupPreload, objects)
	if objects > tenantBudget {
		t.Errorf("2x4 tenant drive set-up allocated %d objects, budget %d", objects, tenantBudget)
	}

	p := nand.Hynix()
	const luns = 16
	keep := make([]*nand.LUN, luns)
	got = totalAlloc(func() {
		for i := range keep {
			l, err := nand.NewLUN(p)
			if err != nil {
				t.Fatal(err)
			}
			keep[i] = l
		}
	}) / luns
	g := p.Geometry
	perBlock := g.BlocksPerLUN * (8 + 1) // an erase count (int) and a bad mark (bool)
	budget := uint64(perBlock + 2048)
	t.Logf("nand.NewLUN(Hynix): %d bytes (per-block state %d)", got, perBlock)
	if got > budget {
		t.Errorf("nand.NewLUN(Hynix) allocated %d bytes, budget %d: the per-block state and 2 KiB", got, budget)
	}
}
