package ssd

import (
	"math/rand"
	"testing"

	"repro/internal/hic"
)

// TestRandomStormAgainstModel drives the full SSD stack (host interface,
// FTL with GC, BABOL controller, NAND with protocol enforcement) with a
// random mix of reads, writes, and overwrites, checking every read's
// content against an in-memory reference model. It is the integration
// analogue of the per-module property tests: if any layer loses, merges,
// or corrupts a page — including through copyback GC relocations — the
// model disagrees.
func TestRandomStormAgainstModel(t *testing.T) {
	for _, copyback := range []bool{false, true} {
		copyback := copyback
		name := "read-program-gc"
		if copyback {
			name = "copyback-gc"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallBuild(CtrlBabolRTOS)
			cfg.Channels = 2
			cfg.Ways = 2
			cfg.UseCopyback = copyback
			rig := mustBuild(t, cfg)
			logical := rig.FTL.LogicalPages()

			// The reference model: LPN → whether it has been written.
			// Page content is deterministic from the LPN (FillPattern),
			// so the model only needs the written set.
			written := make([]bool, logical)
			writesInFlight := make([]int, logical)
			rng := rand.New(rand.NewSource(99))

			const storm = 1200
			issued := 0
			verifyBuf := make([]byte, 512)
			var issue func()
			issue = func() {
				if issued >= storm {
					return
				}
				issued++
				lpn := rng.Intn(logical)
				if rng.Intn(2) == 0 {
					writesInFlight[lpn]++
					rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: lpn, Done: func(err error) {
						writesInFlight[lpn]--
						if err != nil {
							t.Errorf("write LPN %d: %v", lpn, err)
						} else {
							written[lpn] = true
						}
						issue()
					}})
					return
				}
				wasWritten := written[lpn]
				rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
					if err != nil {
						t.Errorf("read LPN %d: %v", lpn, err)
					}
					// A written LPN must stay mapped; content checks
					// happen in the quiescent final sweep (mid-storm the
					// mapping legitimately points at in-flight GC
					// relocations whose program has not landed yet).
					if wasWritten && writesInFlight[lpn] == 0 {
						if _, ok := rig.FTL.Lookup(lpn); !ok {
							t.Errorf("written LPN %d unmapped", lpn)
						}
					}
					issue()
				}})
			}
			// Keep four commands in flight.
			for i := 0; i < 4; i++ {
				issue()
			}
			rig.Kernel.Run()
			if issued != storm {
				t.Fatalf("issued %d of %d", issued, storm)
			}
			if err := rig.FTL.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Final sweep: every written LPN reads back clean.
			for lpn := 0; lpn < logical; lpn++ {
				if !written[lpn] {
					continue
				}
				loc, ok := rig.FTL.Lookup(lpn)
				if !ok {
					t.Fatalf("final: LPN %d unmapped", lpn)
				}
				data, err := rig.SSD.lun(loc.Chip).PeekPage(loc.Row)
				if err != nil {
					t.Fatal(err)
				}
				FillPattern(verifyBuf, lpn)
				for i := range verifyBuf {
					if data[i] != verifyBuf[i] {
						t.Fatalf("final: LPN %d corrupt at byte %d", lpn, i)
					}
				}
			}
		})
	}
}

// TestFullSSDDeterminism runs the identical seeded storm twice and
// requires identical completion timelines — the whole-stack determinism
// property the simulation promises.
func TestFullSSDDeterminism(t *testing.T) {
	run := func() (uint64, int64) {
		cfg := smallBuild(CtrlBabolRTOS)
		cfg.Channels = 2
		rig := mustBuild(t, cfg)
		logical := rig.FTL.LogicalPages()
		if err := rig.SSD.Preload(logical / 2); err != nil {
			t.Fatal(err)
		}
		if _, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
			Pattern: hic.Random, Kind: hic.KindRead,
			NumOps: 200, QueueDepth: 8, LogicalPages: logical / 2, Seed: 1234,
		}); err != nil {
			t.Fatal(err)
		}
		rig.Kernel.Run()
		return rig.Kernel.Executed(), int64(rig.Kernel.Now())
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("non-deterministic: run1=(%d events, %d ps) run2=(%d, %d)", e1, t1, e2, t2)
	}
}

// TestKitchenSinkStorm enables every optional feature at once —
// multi-channel, ECC with GC scrubbing, copyback GC, read-priority erase
// suspension — and verifies the random storm still completes with full
// data integrity. Feature interactions (e.g. copyback skipping the ECC
// scrub, urgent reads riding suspendable erases) are exactly where bugs
// hide.
func TestKitchenSinkStorm(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 2
	cfg.Ways = 2
	cfg.WithECC = true
	cfg.UseCopyback = true
	cfg.SuspendReads = true
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()

	written := make([]bool, logical)
	rng := rand.New(rand.NewSource(7))
	n := 0
	var issue func()
	issue = func() {
		if n >= 1500 {
			return
		}
		n++
		lpn := rng.Intn(logical)
		kind := hic.KindWrite
		if rng.Intn(3) == 0 {
			kind = hic.KindRead
		}
		rig.SSD.Submit(hic.Command{Kind: kind, LPN: lpn, Done: func(err error) {
			if err != nil {
				t.Errorf("%v LPN %d: %v", kind, lpn, err)
			} else if kind == hic.KindWrite {
				written[lpn] = true
			}
			issue()
		}})
	}
	for i := 0; i < 3; i++ {
		issue()
	}
	rig.Kernel.Run()
	if err := rig.FTL.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := rig.SSD.Stats()
	if st.GCCycles == 0 {
		t.Error("storm never triggered GC")
	}
	// Every written page reads back through the full (ECC-checked) path.
	verified := 0
	for lpn := 0; lpn < logical; lpn++ {
		if !written[lpn] {
			continue
		}
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
			if err != nil {
				t.Errorf("final read: %v", err)
			}
			verified++
		}})
	}
	rig.Kernel.Run()
	if verified == 0 {
		t.Fatal("nothing verified")
	}
}

// TestWearOutLongevity drives a tiny drive until blocks exceed their
// endurance: the FTL must retire grown-bad blocks transparently and keep
// serving until over-provisioning is truly exhausted.
func TestWearOutLongevity(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Ways = 1
	cfg.Params.MaxPECycles = 6 // wear out fast
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()

	n, failed := 0, 0
	var issue func()
	issue = func() {
		if n >= logical*24 || failed > 0 {
			return
		}
		lpn := n % logical
		n++
		rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: lpn, Done: func(err error) {
			if err != nil {
				failed++
			}
			issue()
		}})
	}
	issue()
	rig.Kernel.Run()
	retired := rig.FTL.Stats().BadBlocks
	if retired == 0 {
		t.Error("no blocks wore out despite 24× overwrite at 6 P/E cycles")
	}
	if err := rig.FTL.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d pages before first failure; %d blocks retired", n, retired)
}
