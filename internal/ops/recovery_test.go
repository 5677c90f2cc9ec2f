package ops_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
)

// stuckRig builds a one-chip rig whose LUN wedges on its first array
// operation, recoverable (or not) by ONFI RESET.
func stuckRig(t *testing.T, recoverable bool) (*rig, *nand.LUN) {
	t.Helper()
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	plan := fault.Plan{StuckBusy: []fault.StuckBusy{{Chip: 0, AfterOps: 0, Recoverable: recoverable}}}
	lun.SetFaults(plan.Injector(0, nil, 0))
	return r, lun
}

func TestPollBudgetEscalatesToResetRecovery(t *testing.T) {
	r, lun := stuckRig(t, true)
	want := bytes.Repeat([]byte{0x5A}, 256)
	row := onfi.RowAddr{Block: 1, Page: 0}
	if err := lun.SeedPage(row, want); err != nil {
		t.Fatal(err)
	}

	// The first read wedges; the poll budget must trip and the RESET
	// must revive the chip, surfacing as an aborted-but-recovered op.
	err := r.run(t, core.OpRequest{Func: ops.ReadPage(onfi.Addr{Row: row}, 0, 256), Chip: 0})
	if !errors.Is(err, ops.ErrResetRecovered) {
		t.Fatalf("wedged read returned %v, want ErrResetRecovered", err)
	}
	if got := r.ctrl.Stats().Recoveries; got < 2 {
		t.Fatalf("Stats.Recoveries = %d, want >= 2 (reset + reset-recovered)", got)
	}

	// The chip is usable again: reissuing the read succeeds.
	if err := r.run(t, core.OpRequest{Func: ops.ReadPage(onfi.Addr{Row: row}, 0, 256), Chip: 0}); err != nil {
		t.Fatalf("reissued read after recovery: %v", err)
	}
	got, _ := r.mem.Read(0, 256)
	if !bytes.Equal(got, want) {
		t.Error("reissued read data mismatch")
	}
}

func TestPollBudgetDeclaresDeadChip(t *testing.T) {
	r, _ := stuckRig(t, false)
	err := r.run(t, core.OpRequest{Func: ops.ReadPage(onfi.Addr{}, 0, 256), Chip: 0})
	if !errors.Is(err, ops.ErrChipDead) {
		t.Fatalf("unrecoverable chip returned %v, want ErrChipDead", err)
	}
}

// An urgent read that wedges while an erase is suspended is recovered
// by RESET, which aborts the suspended erase too: the read and the
// erase both report ErrResetRecovered, and no RESUME follows.
func TestStuckUrgentReadAbortsSuspendedErase(t *testing.T) {
	r := newRig(t, 1, smallParams())
	lun := r.ch.Chip(0)
	plan := fault.Plan{StuckBusy: []fault.StuckBusy{{Chip: 0, AfterOps: 1, Recoverable: true}}}
	lun.SetFaults(plan.Injector(0, nil, 0))
	var readErr error
	served := false
	next := func() (ops.UrgentRead, bool) {
		if served {
			return ops.UrgentRead{}, false
		}
		served = true
		return ops.UrgentRead{Addr: onfi.Addr{Row: onfi.RowAddr{Block: 2}}, N: 256, Done: func(err error) { readErr = err }}, true
	}
	err := r.run(t, core.OpRequest{Func: ops.InterruptibleErase(1, next), Chip: 0})
	if !errors.Is(err, ops.ErrResetRecovered) {
		t.Errorf("erase returned %v, want ErrResetRecovered", err)
	}
	if !errors.Is(readErr, ops.ErrResetRecovered) {
		t.Errorf("urgent read reported %v, want ErrResetRecovered", readErr)
	}
	if n := lun.Stats().ResumeCnt; n != 0 {
		t.Errorf("%d resumes after the RESET", n)
	}
}

func TestStuckProgramRecovers(t *testing.T) {
	r, _ := stuckRig(t, true)
	if err := r.mem.Write(0, bytes.Repeat([]byte{0x11}, 256)); err != nil {
		t.Fatal(err)
	}
	err := r.run(t, core.OpRequest{
		Func: ops.ProgramPage(onfi.Addr{Row: onfi.RowAddr{Block: 1}}, 0, 256),
		Chip: 0,
	})
	if !errors.Is(err, ops.ErrResetRecovered) {
		t.Fatalf("wedged program returned %v, want ErrResetRecovered", err)
	}
	// The aborted program left the chip healthy: a program of a fresh
	// page lands. (The wedged program may already have committed its
	// page to the array, so the retry targets the next one — the SSD
	// layer likewise re-allocates rather than reusing the page.)
	err = r.run(t, core.OpRequest{
		Func: ops.ProgramPage(onfi.Addr{Row: onfi.RowAddr{Block: 1, Page: 1}}, 0, 256),
		Chip: 0,
	})
	if err != nil {
		t.Fatalf("program after recovery: %v", err)
	}
}

// TestReadWithRetryRestoresDefaultLevel is the regression for the
// read-retry parking bug: ReadWithRetry used to leave FeatReadRetry at
// the last level it tried, so every later read of a page whose optimal
// level is the power-on default saw a level-skew mismatch and spurious
// bit flips.
func TestReadWithRetryRestoresDefaultLevel(t *testing.T) {
	p := smallParams()
	p.RawBitErrorPer512B = 16
	r := newRig(t, 1, p)
	lun := r.ch.Chip(0)

	// rowA needs a non-zero optimal level so the retry walk succeeds
	// away from the default; rowB needs optimal level zero so a parked
	// level would skew it.
	pickRow := func(wantZero bool) onfi.RowAddr {
		for block := 1; block < p.Geometry.BlocksPerLUN; block++ {
			for page := 0; page < p.Geometry.PagesPerBlk; page++ {
				row := uint32(block*p.Geometry.PagesPerBlk + page)
				if (lun.OptimalRetryLevel(row) == 0) == wantZero {
					return onfi.RowAddr{Block: block, Page: page}
				}
			}
		}
		t.Fatalf("no row with optimal-level-zero=%v in the test geometry", wantZero)
		return onfi.RowAddr{}
	}
	rowA, rowB := pickRow(false), pickRow(true)
	if rowA.Block == rowB.Block {
		t.Fatalf("test rows share block %d; pick a bigger geometry", rowA.Block)
	}
	wantA := bytes.Repeat([]byte{0x55}, 256)
	wantB := bytes.Repeat([]byte{0xC3}, 256)
	if err := lun.SeedPage(rowA, wantA); err != nil {
		t.Fatal(err)
	}
	if err := lun.SeedPage(rowB, wantB); err != nil {
		t.Fatal(err)
	}
	lun.Wear(rowA.Block, p.MaxPECycles)
	lun.Wear(rowB.Block, p.MaxPECycles)

	verify := func(data []byte) bool { return bytes.Equal(data, wantA) }
	err := r.run(t, core.OpRequest{
		Func: ops.ReadWithRetry(onfi.Addr{Row: rowA}, 0, 256, verify),
		Chip: 0,
	})
	if err != nil {
		t.Fatalf("read retry failed: %v", err)
	}

	// The package must be back at the power-on default level.
	var level [4]byte
	if err := r.run(t, core.OpRequest{Func: ops.GetFeature(onfi.FeatReadRetry, &level), Chip: 0}); err != nil {
		t.Fatal(err)
	}
	if level != ([4]byte{}) {
		t.Fatalf("FeatReadRetry parked at %v after ReadWithRetry, want default", level)
	}

	// And a plain read of the worn default-level page is clean — with
	// the level parked it would come back with level-skew bit flips.
	if err := r.run(t, core.OpRequest{Func: ops.ReadPage(onfi.Addr{Row: rowB}, 4096, 256), Chip: 0}); err != nil {
		t.Fatal(err)
	}
	got, _ := r.mem.Read(4096, 256)
	if !bytes.Equal(got, wantB) {
		t.Error("read after ReadWithRetry saw level-skewed data")
	}
}
