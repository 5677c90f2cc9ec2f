package ssd

import (
	"runtime"
	"testing"

	"repro/internal/hic"
	"repro/internal/onfi"
)

// rigLoad is a closed loop of host commands for the rig alloc gate: a
// fixed read/write/trim mix over uniformly random LPNs, drawn from an
// inline LCG and completed through one bound callback, so the loop
// itself allocates nothing.
type rigLoad struct {
	rig       *Rig
	lpns      uint64
	rng       uint64
	completed int
	failed    int
	doneFn    func(error)
}

func newRigLoad(rig *Rig, depth int) *rigLoad {
	l := &rigLoad{rig: rig, lpns: uint64(rig.FTL.LogicalPages()), rng: 1}
	l.doneFn = l.done
	for i := 0; i < depth; i++ {
		l.issue()
	}
	return l
}

// issue submits the next command: 60 % reads, 30 % writes, 10 % trims.
func (l *rigLoad) issue() {
	l.rng = l.rng*6364136223846793005 + 1442695040888963407
	r := l.rng >> 33
	kind := hic.KindRead
	switch r % 10 {
	case 6, 7, 8:
		kind = hic.KindWrite
	case 9:
		kind = hic.KindTrim
	}
	l.rig.SSD.Submit(hic.Command{Kind: kind, LPN: int((r / 10) % l.lpns), Done: l.doneFn})
}

func (l *rigLoad) done(err error) {
	if err != nil {
		l.failed++
	}
	l.completed++
	l.issue()
}

// run advances the rig until n more commands have completed.
func (l *rigLoad) run(t *testing.T, n int) {
	for target := l.completed + n; l.completed < target; {
		if !l.rig.Kernel.Step() {
			t.Fatal("kernel drained with commands outstanding")
		}
	}
}

// TestAllocGateRig holds a whole warmed rig to 0 allocations per host
// command, on BABOL and on the hardware baseline. The drive is small and
// fast with a map cache far smaller than its map, and the mix overwrites
// and trims a preloaded drive, so the measured window runs page reads,
// map-cache misses, GC relocations and erases, trims, parked admissions
// and slot waits — every host-op path, past its pools' high-water marks.
func TestAllocGateRig(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// One P: sync.Pool keeps a cache per P, and a goroutine migrating
	// between Ps would make the page-buffer pool steal and regrow its
	// caches at random.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, kind := range []ControllerKind{CtrlBabolRTOS, CtrlHW} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := smallBuild(kind)
			cfg.Params.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 32, PagesPerBlk: 16, PageBytes: 512, SpareBytes: 64}
			cfg.Channels = 2
			cfg.MapCacheBytes = 2048
			rig := mustBuild(t, cfg)
			if err := rig.SSD.Preload(rig.FTL.LogicalPages()); err != nil {
				t.Fatal(err)
			}
			l := newRigLoad(rig, 16)
			// Warm: pools, queues and maps reach their high-water marks.
			// A collection empties the page-buffer sync.Pool's primary
			// cache, which then rebuilds its chain; collect once here and
			// warm again, so the window (which allocates nothing, and so
			// triggers no collection) never sees that rebuild.
			l.run(t, 20000)
			runtime.GC()
			l.run(t, 20000)

			parked := func() (waits uint64) {
				for _, c := range rig.Babols {
					waits += c.Stats().AdmissionWaits
				}
				return waits
			}
			const n = 10000
			ssd0, ftl0, cache0, parked0 := rig.SSD.Stats(), rig.FTL.Stats(), rig.FTL.CacheStats(), parked()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			l.run(t, n)
			runtime.ReadMemStats(&m1)
			ssd1, ftl1, cache1, parked1 := rig.SSD.Stats(), rig.FTL.Stats(), rig.FTL.CacheStats(), parked()

			// 0 per command to three decimals: a Go map that rehashes
			// after churn, or the page-buffer pool growing a ring, can
			// still allocate once in a while, never per command.
			allocs := m1.Mallocs - m0.Mallocs
			t.Logf("%d allocations over %d host commands", allocs, n)
			if allocs > n/1000 {
				t.Errorf("%.4f allocations per host command in steady state, want 0", float64(allocs)/n)
			}
			if l.failed != 0 {
				t.Errorf("%d commands failed", l.failed)
			}
			// The window must exercise what the gate claims to cover.
			need := func(what string, n uint64) {
				if n == 0 {
					t.Errorf("the measured window ran no %s; the gate is vacuous", what)
				}
			}
			need("reads", ssd1.HostReads-ssd0.HostReads)
			need("writes", ssd1.HostWrites-ssd0.HostWrites)
			need("trims", ssd1.HostTrims-ssd0.HostTrims)
			need("GC cycles", ssd1.GCCycles-ssd0.GCCycles)
			need("GC moves", ftl1.GCMoves-ftl0.GCMoves)
			need("map-cache misses", cache1.Misses-cache0.Misses)
			if kind != CtrlHW {
				need("parked admissions", parked1-parked0)
			}
		})
	}
}
