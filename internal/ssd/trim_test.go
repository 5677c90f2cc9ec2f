package ssd

import (
	"testing"

	"repro/internal/hic"
	"repro/internal/sim"
)

// TestTrimInvalidatesMapping pins the deallocate semantics: after a
// trim, the LPN is unmapped, its stats counter ticks, and a subsequent
// read completes as an unwritten page (zero-fill, no flash traffic).
func TestTrimInvalidatesMapping(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlBabolRTOS))
	if err := rig.SSD.Preload(8); err != nil {
		t.Fatal(err)
	}
	if _, ok := rig.FTL.Lookup(3); !ok {
		t.Fatal("LPN 3 unmapped after preload")
	}
	var sequence []error
	rig.SSD.Submit(hic.Command{Kind: hic.KindTrim, LPN: 3, Done: func(err error) {
		sequence = append(sequence, err)
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: 3, Done: func(err error) {
			sequence = append(sequence, err)
		}})
	}})
	rig.Kernel.Run()
	if len(sequence) != 2 || sequence[0] != nil || sequence[1] != nil {
		t.Fatalf("completions: %v", sequence)
	}
	if _, ok := rig.FTL.Lookup(3); ok {
		t.Error("LPN 3 still mapped after trim")
	}
	if got := rig.SSD.Stats().HostTrims; got != 1 {
		t.Errorf("HostTrims = %d, want 1", got)
	}
	// Trimming an already-unmapped LPN is a harmless no-op.
	done := false
	rig.SSD.Submit(hic.Command{Kind: hic.KindTrim, LPN: 3, Done: func(err error) {
		if err != nil {
			t.Error(err)
		}
		done = true
	}})
	rig.Kernel.Run()
	if !done {
		t.Fatal("second trim never completed")
	}
	auditDrained(t, rig)
}

// TestTrimWaitsForInFlightProgram pins the ordering contract: a trim of
// an LPN with an in-flight program parks until the program lands — it
// completes when the write does, not at its own arrival — and it still
// unmaps the page the write just placed.
func TestTrimWaitsForInFlightProgram(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlBabolRTOS))
	var writeDone, trimDone sim.Time
	trimAt := 25 * sim.Microsecond
	rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: 5, Done: func(err error) {
		if err != nil {
			t.Error(err)
		}
		writeDone = rig.Kernel.Now()
	}})
	// Mid-program (TPROG is 50us at this geometry): the PROGRAM is in
	// flight, so the trim must park until it lands.
	rig.Kernel.After(trimAt, func() {
		rig.SSD.Submit(hic.Command{Kind: hic.KindTrim, LPN: 5, Done: func(err error) {
			if err != nil {
				t.Error(err)
			}
			trimDone = rig.Kernel.Now()
		}})
	})
	rig.Kernel.Run()
	if writeDone == 0 || trimDone == 0 {
		t.Fatalf("write done at %v, trim done at %v; both must complete", writeDone, trimDone)
	}
	// A non-parking trim would complete synchronously at its arrival
	// instant; a parked one completes when the program lands.
	if trimDone.Sub(sim.Time(0)) <= sim.Duration(trimAt) {
		t.Errorf("trim completed at %v, at/before its %v arrival — it did not park", trimDone, trimAt)
	}
	if trimDone != writeDone {
		t.Errorf("trim completed at %v but the program landed at %v", trimDone, writeDone)
	}
	if _, ok := rig.FTL.Lookup(5); ok {
		t.Error("LPN 5 still mapped after trim-behind-write")
	}
	auditDrained(t, rig)
}

// TestTrimRejectedInReadOnlyMode pins degraded-mode behavior: a
// read-only drive refuses deallocation like it refuses writes.
func TestTrimRejectedInReadOnlyMode(t *testing.T) {
	rig := mustBuild(t, smallBuild(CtrlBabolRTOS))
	if err := rig.SSD.Preload(4); err != nil {
		t.Fatal(err)
	}
	rig.SSD.enterDegraded()
	var got error
	rig.SSD.Submit(hic.Command{Kind: hic.KindTrim, LPN: 1, Done: func(err error) { got = err }})
	rig.Kernel.Run()
	if got != ErrReadOnly {
		t.Fatalf("trim in read-only mode: %v, want ErrReadOnly", got)
	}
	if _, ok := rig.FTL.Lookup(1); !ok {
		t.Error("read-only trim still unmapped the page")
	}
	auditDrained(t, rig)
}
