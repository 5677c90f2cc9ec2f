package ssd

import (
	"runtime"
	"runtime/debug"
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

// allocRigConfig is the rig the host-path alloc gates drive: small and
// fast, with a map cache far smaller than its map, so a mix that
// overwrites and trims a preloaded drive runs page reads, map-cache
// misses, GC relocations and erases, trims, parked admissions and slot
// waits.
func allocRigConfig(kind ControllerKind) BuildConfig {
	cfg := smallBuild(kind)
	cfg.Params.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 32, PagesPerBlk: 16, PageBytes: 512, SpareBytes: 64}
	cfg.Channels = 2
	cfg.MapCacheBytes = 2048
	return cfg
}

// preloadedRigLoad builds kind's alloc rig, preloads every LPN and
// starts a rigLoad of depth 16 on it.
func preloadedRigLoad(t *testing.T, kind ControllerKind) *rigLoad {
	rig := mustBuild(t, allocRigConfig(kind))
	if err := rig.SSD.Preload(rig.FTL.LogicalPages()); err != nil {
		t.Fatal(err)
	}
	return newRigLoad(rig, 16)
}

// gcMallocs reports the objects two forced collections allocate on
// their own: the baseline TestAllocGateRig subtracts from its window.
func gcMallocs() uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestAllocGateRig holds a whole warmed rig to 0 allocations per host
// command, on BABOL and on the hardware baseline, every host-op path
// past its pools' high-water marks. Two collections run inside the
// measured window: no collection may empty a pool that the window then
// refills, so the count is the rig's, whatever the heap does. What the
// two collections allocate on their own is measured just before and
// subtracted.
func TestAllocGateRig(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, kind := range []ControllerKind{CtrlBabolRTOS, CtrlHW} {
		t.Run(kind.String(), func(t *testing.T) {
			l := preloadedRigLoad(t, kind)
			rig := l.rig
			// Warm: pools, queues and maps reach their high-water marks.
			l.run(t, 40000)

			parked := func() (waits uint64) {
				for _, c := range rig.Babols {
					waits += c.Stats().AdmissionWaits
				}
				return waits
			}
			const n = 10000
			gcMallocs() // the first pair after the warm-up sweeps its garbage
			gcOnly := gcMallocs()
			ssd0, ftl0, cache0, parked0 := rig.SSD.Stats(), rig.FTL.Stats(), rig.FTL.CacheStats(), parked()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			l.run(t, n/3)
			runtime.GC()
			l.run(t, n/3)
			runtime.GC()
			l.run(t, n-2*(n/3))
			runtime.ReadMemStats(&m1)
			ssd1, ftl1, cache1, parked1 := rig.SSD.Stats(), rig.FTL.Stats(), rig.FTL.CacheStats(), parked()

			// 0 per command to three decimals: a Go map that rehashes
			// after churn can still allocate once in a while, never per
			// command.
			allocs := int64(m1.Mallocs-m0.Mallocs) - int64(gcOnly)
			t.Logf("%d allocations over %d host commands and 2 collections (%d more were the collections' own)", allocs, n, gcOnly)
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

// TestAllocsIgnoreGCPercent runs the same preload and rigLoad mix at
// GOGC 25 and at 400 and compares the objects allocated per host
// command: the count must be the rig's, not the heap's, so it may differ
// only by what the extra collections allocate on their own.
func TestAllocsIgnoreGCPercent(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 20000
	measure := func(percent int) (mallocs, gcs uint64) {
		defer debug.SetGCPercent(debug.SetGCPercent(percent))
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		l := preloadedRigLoad(t, CtrlBabolRTOS)
		l.run(t, n)
		runtime.ReadMemStats(&m1)
		if l.failed != 0 {
			t.Errorf("GOGC %d: %d commands failed", percent, l.failed)
		}
		return m1.Mallocs - m0.Mallocs, uint64(m1.NumGC - m0.NumGC)
	}
	lo, loGCs := measure(25)
	hi, hiGCs := measure(400)
	t.Logf("GOGC 25: %d objects, %d collections; GOGC 400: %d objects, %d collections", lo, loGCs, hi, hiGCs)
	if loGCs <= hiGCs {
		t.Fatalf("GOGC 25 ran %d collections and GOGC 400 %d; the comparison is vacuous", loGCs, hiGCs)
	}
	// A collection allocates a few objects of its own, and the runtime
	// recycles goroutine descriptors at its own pace: allow four objects
	// per extra collection and 16 in all, nothing per command. (A
	// sync.Pool arena read ≈100 more at GOGC 25: the pages each
	// collection dropped, allocated again.)
	if diff := int64(lo) - int64(hi); diff < -16 || diff > 4*int64(loGCs-hiGCs)+16 {
		t.Errorf("GOGC 25 allocated %d objects and GOGC 400 %d over the same set-up and %d host commands: the count tracks the heap", lo, hi, n)
	}
}
