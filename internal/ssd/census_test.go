package ssd

import (
	"testing"

	"repro/internal/hic"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// TestKernelEventCensus accounts for every kernel event a BABOL rig
// schedules, by source, on the rig of TestAllocGateRig: reads,
// GC-driving writes, trims and map-cache misses from a closed loop, plus
// an open-loop host source. The sources are
//
//   - firmware charges: every cpumodel.Exec is one event at the charge's
//     end (admit, schedule, switch, submit, poll-resubmit), counted by
//     the CPUs' Stats.Executions;
//   - transaction completions: every executed transaction is one txnDone
//     event, counted by the controllers' Stats.TxnsExecuted;
//   - host arrivals: every command a host schedules for later is one
//     event (the open-loop source below; hic.RunTenants' burst
//     deferrals), counted here by the test's own source;
//   - deferred execHead: armHW finding the channel busy. None: a
//     controller owns its channel and completes a transaction when the
//     channel frees, so it never arms onto a busy one;
//   - Ctx.Sleep wake-ups: none, the default read, program and erase
//     paths poll instead of sleeping.
//
// A new source breaks the equality.
func TestKernelEventCensus(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Params.Geometry = onfi.Geometry{Planes: 1, BlocksPerLUN: 32, PagesPerBlk: 16, PageBytes: 512, SpareBytes: 64}
	cfg.Channels = 2
	cfg.MapCacheBytes = 2048
	rig := mustBuild(t, cfg)
	if err := rig.SSD.Preload(rig.FTL.LogicalPages()); err != nil {
		t.Fatal(err)
	}
	k := rig.Kernel
	scheduled := func() (charges, txns uint64) {
		for _, c := range rig.Babols {
			charges += c.CPU().Stats().Executions
			txns += c.Stats().TxnsExecuted
		}
		return charges, txns
	}
	charges0, txns0 := scheduled()
	fired0, pending0 := k.Executed(), uint64(k.Pending())
	ssd0, cache0 := rig.SSD.Stats(), rig.FTL.CacheStats()

	// Open loop: one read every 50 µs, each arrival an event of its own.
	var arrivals uint64 // scheduled
	var arrive func()
	next := func() {
		arrivals++
		k.After(50*sim.Microsecond, arrive)
	}
	arrive = func() {
		lpn := int(arrivals) % rig.FTL.LogicalPages()
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(error) {}})
		next()
	}
	next()

	l := newRigLoad(rig, 16)
	const n = 20000
	l.run(t, n)

	charges1, txns1 := scheduled()
	charges, txns := charges1-charges0, txns1-txns0
	// Every scheduled event has fired or is still pending.
	events := k.Executed() - fired0 + uint64(k.Pending()) - pending0
	t.Logf("%d events for %d closed-loop commands: %d firmware charges, %d transaction completions, %d host arrivals",
		events, n, charges, txns, arrivals)
	if want := charges + txns + arrivals; events != want {
		t.Errorf("kernel scheduled %d events, the named sources %d: %d unaccounted", events, want, int64(events)-int64(want))
	}

	ssd1, cache1 := rig.SSD.Stats(), rig.FTL.CacheStats()
	need := func(what string, n uint64) {
		if n == 0 {
			t.Errorf("the census ran no %s", what)
		}
	}
	need("writes", ssd1.HostWrites-ssd0.HostWrites)
	need("GC cycles", ssd1.GCCycles-ssd0.GCCycles)
	need("map-cache misses", cache1.Misses-cache0.Misses)
	need("host arrivals", arrivals)
}
