package ssd

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hic"
	"repro/internal/obs"
)

// telemetryRun drives a fixed read workload on a sharded 4-channel rig
// and returns the rig plus a fingerprint of its merged trace.
func telemetryRun(t *testing.T, telemetry bool) (*Rig, string) {
	t.Helper()
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 4
	cfg.Ways = 1
	cfg.Shards = 5
	cfg.ShardTelemetry = telemetry
	var trace obs.Buffer
	cfg.Tracer = &trace
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: 80, QueueDepth: 4, LogicalPages: logical, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run()
	if res.Failed != 0 {
		t.Fatalf("%d reads failed", res.Failed)
	}
	var fp strings.Builder
	for _, e := range trace.Events() {
		fmt.Fprintf(&fp, "%+v\n", e)
	}
	return rig, fp.String()
}

// TestShardedTelemetryInvariance pins the rig-level Flashmon contract:
// arming telemetry changes nothing observable — the merged trace is
// byte-identical to the unarmed rig's.
func TestShardedTelemetryInvariance(t *testing.T) {
	_, ref := telemetryRun(t, false)
	armed, got := telemetryRun(t, true)
	if got != ref {
		t.Fatal("trace with telemetry armed differs from unarmed trace")
	}
	if armed.Telemetry == nil {
		t.Fatal("ShardTelemetry set but rig.Telemetry is nil")
	}
	snap := armed.Telemetry.Snapshot()
	if snap.Windows != armed.Cluster.Windows() {
		t.Fatalf("telemetry windows %d != cluster windows %d", snap.Windows, armed.Cluster.Windows())
	}
	var events uint64
	for _, s := range snap.Shards {
		events += s.Events
	}
	if events == 0 {
		t.Fatal("telemetry recorded no events")
	}
	if len(snap.Shards) != 5 {
		t.Fatalf("%d shard slots, want 5", len(snap.Shards))
	}
}

// TestShardedTelemetryAllocGate extends the funnel alloc gate's
// contract to the armed instrument: a warmed sharded rig with telemetry
// on allocates no more than the telemetry-off rig (plus fixed slack for
// the one Snapshot the comparison itself takes).
func TestShardedTelemetryAllocGate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	measure := func(telemetry bool) uint64 {
		cfg := smallBuild(CtrlBabolRTOS)
		cfg.Channels = 2
		cfg.Ways = 2
		cfg.Shards = 3
		cfg.ShardTelemetry = telemetry
		rig := mustBuild(t, cfg)
		if err := rig.SSD.Preload(rig.FTL.LogicalPages()); err != nil {
			t.Fatal(err)
		}
		workload := func() {
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
		workload() // warm to high-water
		runtime.GC()
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		workload()
		runtime.ReadMemStats(&m2)
		return m2.Mallocs - m1.Mallocs
	}
	off := measure(false)
	on := measure(true)
	const slack = 200
	if on > off+slack {
		t.Fatalf("armed telemetry allocated %d vs %d unarmed — the hot path is allocating", on, off)
	}
	t.Logf("allocs: telemetry-off=%d telemetry-on=%d", off, on)
}
