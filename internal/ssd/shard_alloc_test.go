package ssd

import (
	"runtime"
	"testing"

	"repro/internal/hic"
)

// raceDetectorEnabled is set by shard_race_test.go under -race.
var raceDetectorEnabled = false

// TestAllocGateShardFunnel pins the sharded datapath's steady-state
// allocation behavior at the rig level: the cross-domain machinery —
// windows, posts, crossCall recycling, trace-buffer merging — must add
// ~zero allocations per window over the legacy path. The gate runs the
// same warmed read workload on a legacy rig and a sharded rig and
// bounds the difference; with thousands of windows in the measured
// region, even one allocation per window would blow the budget tenfold.
func TestAllocGateShardFunnel(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	build := func(shards int) *Rig {
		cfg := smallBuild(CtrlBabolRTOS)
		cfg.Channels = 2
		cfg.Ways = 2
		cfg.Shards = shards
		rig := mustBuild(t, cfg)
		if err := rig.SSD.Preload(rig.FTL.LogicalPages()); err != nil {
			t.Fatal(err)
		}
		return rig
	}
	workload := func(rig *Rig) {
		res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
			Pattern: hic.Sequential, Kind: hic.KindRead,
			NumOps: 400, QueueDepth: 8, LogicalPages: rig.FTL.LogicalPages(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.Run()
		if res.Failed != 0 {
			t.Fatalf("%d reads failed", res.Failed)
		}
	}
	measure := func(rig *Rig) uint64 {
		workload(rig) // warm: outboxes, pools, and buffers reach high-water
		runtime.GC()
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		workload(rig)
		runtime.ReadMemStats(&m2)
		return m2.Mallocs - m1.Mallocs
	}

	legacy := measure(build(0))
	shardedRig := build(3)
	before := shardedRig.Cluster.Windows()
	sharded := measure(shardedRig)
	windows := shardedRig.Cluster.Windows() - before

	if windows < 1000 {
		t.Fatalf("measured region ran only %d windows; gate is vacuous", windows)
	}
	// The sharded run's fixed extras: one worker set per Run call plus
	// slack for runtime noise. Nothing may scale with the window count.
	const slack = 200
	if sharded > legacy+slack {
		t.Fatalf("sharded workload allocated %d objects vs legacy %d over %d windows — the funnel is allocating per event",
			sharded, legacy, windows)
	}
	t.Logf("allocs: legacy=%d sharded=%d over %d windows", legacy, sharded, windows)
}
