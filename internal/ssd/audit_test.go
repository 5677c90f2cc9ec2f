package ssd

import "testing"

// auditDrained checks that a rig whose kernel has drained holds nothing
// back: every DRAM slot is home with no one waiting for one, no program,
// program waiter, map-page load, erase-suspend sink or stalled write is
// left, the FTL's invariants hold, and no controller has a request
// queued or in flight. A completion path that forgets to return a
// resource fails here, at the end of whatever test drove it.
func auditDrained(t *testing.T, rig *Rig) {
	t.Helper()
	s := rig.SSD
	// Build makes two staging slots per chip.
	if want := 2 * s.ftl.Chips(); len(s.freeSlots) != want {
		t.Errorf("audit: %d of %d DRAM slots home", len(s.freeSlots), want)
	}
	home := make(map[int]bool, len(s.freeSlots))
	for _, addr := range s.freeSlots {
		if home[addr] {
			t.Errorf("audit: DRAM slot %d is on the free list twice", addr)
		}
		home[addr] = true
	}
	if n := s.slotWaiters.Len(); n != 0 {
		t.Errorf("audit: %d slot waiters left", n)
	}
	if n := len(s.programs); n != 0 {
		t.Errorf("audit: %d LPNs with programs in flight or program waiters", n)
	}
	for _, g := range s.freeGates {
		if g.count != 0 || len(g.waiters) != 0 {
			t.Errorf("audit: a recycled program gate holds %d programs and %d waiters", g.count, len(g.waiters))
		}
	}
	if n := len(s.mapLoads); n != 0 {
		t.Errorf("audit: %d map-page loads left", n)
	}
	for chip, g := range s.gc {
		if g.sink != nil {
			t.Errorf("audit: chip %d's erase-suspend sink left", chip)
		}
		if n := g.q.Len(); n != 0 {
			t.Errorf("audit: chip %d's urgent-read queue holds %d reads", chip, n)
		}
	}
	offline := 0
	for chip := 0; chip < s.ftl.Chips(); chip++ {
		if s.ftl.ChipOffline(chip) {
			offline++
		}
	}
	if uint64(offline) != s.stats.OfflinedChips {
		t.Errorf("audit: the FTL holds %d chips offline, Stats.OfflinedChips says %d", offline, s.stats.OfflinedChips)
	}
	if offline == s.ftl.Chips() && !s.stats.ReadOnly {
		t.Errorf("audit: every chip is offline but the drive is not read-only")
	}
	if n := s.stalledWrites.Len(); n != 0 {
		t.Errorf("audit: %d stalled writes left", n)
	}
	if err := s.ftl.CheckInvariants(); err != nil {
		t.Errorf("audit: %v", err)
	}
	for i, c := range rig.Babols {
		if n := c.Pending(); n != 0 {
			t.Errorf("audit: BABOL controller %d has %d requests pending", i, n)
		}
	}
	for i, c := range rig.HWs {
		if n := c.Pending(); n != 0 {
			t.Errorf("audit: HW controller %d has %d requests pending", i, n)
		}
	}
}
