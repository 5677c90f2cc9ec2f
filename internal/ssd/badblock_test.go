package ssd

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/hic"
)

// TestGrownBadBlocksAreTransparent marks several factory-bad blocks and
// verifies the host never sees a program failure: the FTL retires them
// and retries on healthy blocks.
func TestGrownBadBlocksAreTransparent(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Ways = 2
	rig := mustBuild(t, cfg)
	// Grow a realistic number of bad blocks at the media level: programs
	// to them will FAIL. (Retiring more than the over-provisioning can
	// absorb would legitimately shrink the drive below its logical
	// capacity.)
	rig.Channel.Chip(0).MarkBad(0)
	rig.Channel.Chip(0).MarkBad(7)
	rig.Channel.Chip(1).MarkBad(3)
	logical := rig.FTL.LogicalPages() * 3 / 4
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical, QueueDepth: 2, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		t.Fatalf("%d host writes failed despite retirement", res.Failed)
	}
	if res.Completed != logical {
		t.Fatalf("completed %d/%d", res.Completed, logical)
	}
	if rig.FTL.Stats().BadBlocks == 0 {
		t.Error("no blocks retired")
	}
	auditDrained(t, rig)
	// Everything written is readable and correct.
	buf := make([]byte, 512)
	for lpn := 0; lpn < logical; lpn++ {
		loc, ok := rig.FTL.Lookup(lpn)
		if !ok {
			t.Fatalf("LPN %d unmapped", lpn)
		}
		data, err := rig.SSD.lun(loc.Chip).PeekPage(loc.Row)
		if err != nil {
			t.Fatal(err)
		}
		FillPattern(buf, lpn)
		for i := range buf {
			if data[i] != buf[i] {
				t.Fatalf("LPN %d corrupt at byte %d", lpn, i)
			}
		}
	}
}

// TestRetireBlockBookkeeping exercises the FTL-level retirement paths.
func TestRetireBlockBookkeeping(t *testing.T) {
	cfg := smallBuild(CtrlHW)
	rig := mustBuild(t, cfg)
	f := rig.FTL
	free := f.FreeBlocks(0)
	f.RetireBlock(0, 5)
	if f.FreeBlocks(0) != free-1 {
		t.Errorf("free blocks %d, want %d", f.FreeBlocks(0), free-1)
	}
	f.RetireBlock(0, 5) // idempotent
	if f.Stats().BadBlocks != 1 {
		t.Errorf("BadBlocks = %d", f.Stats().BadBlocks)
	}
	f.RetireBlock(-1, 0)  // no-ops
	f.RetireBlock(0, 999) // no-ops
	f.RetireBlock(99, 0)  // no-ops
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpareExhaustionDegradesToReadOnly grinds a one-chip drive's
// spares down with a persistent program/erase fail storm: every program
// FAILs, every failure retires a block, and once nothing is left the
// drive must degrade to read-only — writes fail with ErrReadOnly, reads
// keep being served — instead of wedging with writes parked forever.
func TestSpareExhaustionDegradesToReadOnly(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Ways = 1
	cfg.Faults = &fault.Plan{FailStorms: []fault.FailStorm{{Chip: 0, FirstOp: 0, Count: 0}}}
	rig := mustBuild(t, cfg)
	const preloaded = 8
	if err := rig.SSD.Preload(preloaded); err != nil {
		t.Fatal(err)
	}

	const writes = 20
	var terminated, failed, readOnly int
	for i := 0; i < writes; i++ {
		rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: preloaded + i, Done: func(err error) {
			terminated++
			if err != nil {
				failed++
			}
			if errors.Is(err, ErrReadOnly) {
				readOnly++
			}
		}})
	}
	rig.Kernel.Run()

	if terminated != writes {
		t.Fatalf("only %d/%d writes terminated: the drive wedged", terminated, writes)
	}
	if failed != writes {
		t.Fatalf("%d writes succeeded against a persistent fail storm", writes-failed)
	}
	if !rig.SSD.Stats().ReadOnly {
		t.Fatal("spares exhausted but the drive never entered read-only mode")
	}
	if readOnly == 0 {
		t.Error("no write failed with ErrReadOnly")
	}

	// A write submitted after degradation fails fast with ErrReadOnly.
	var lateErr error
	rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: preloaded, Done: func(err error) { lateErr = err }})
	rig.Kernel.Run()
	if !errors.Is(lateErr, ErrReadOnly) {
		t.Fatalf("write after degradation returned %v, want ErrReadOnly", lateErr)
	}

	// Reads still drain in read-only mode.
	for lpn := 0; lpn < preloaded; lpn++ {
		done, rerr := false, error(nil)
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) { done, rerr = true, err }})
		rig.Kernel.Run()
		if !done {
			t.Fatalf("read of LPN %d never terminated in read-only mode", lpn)
		}
		if rerr != nil {
			t.Fatalf("read of LPN %d in read-only mode: %v", lpn, rerr)
		}
	}
	auditDrained(t, rig)
}
