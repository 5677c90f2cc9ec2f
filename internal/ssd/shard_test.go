package ssd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/sim"
)

// shardedRun drives one mixed workload — background overwrite churn
// (GC, erases, copyback) with foreground random reads (urgent-read
// relay) — on a 4-channel rig at the given shard count, and returns a
// fingerprint of everything observable: the merged trace, the host
// results, and the SSD counters. Byte-equal fingerprints across shard
// counts are the tentpole's acceptance invariant.
func shardedRun(t *testing.T, shards int) (string, Stats) {
	t.Helper()
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 4
	cfg.Ways = 1
	cfg.WithECC = true
	cfg.UseCopyback = true
	cfg.SuspendReads = true
	cfg.Params.TBERS = 3 * sim.Millisecond
	cfg.Shards = shards
	cfg.Observe = true
	var trace obs.Buffer
	cfg.Tracer = &trace
	rig := mustBuild(t, cfg)
	if rig.Cluster == nil {
		t.Fatal("sharded build produced no cluster")
	}
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}

	writes := 0
	var writeNext func()
	writeNext = func() {
		if writes >= logical*3 {
			return
		}
		writes++
		rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: writes % logical, Done: func(err error) {
			if err != nil {
				t.Errorf("bg write: %v", err)
			}
			writeNext()
		}})
	}
	writeNext()
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: 120, QueueDepth: 2, LogicalPages: logical, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run()
	t.Logf("shards=%d windows=%d posts=%d end=%v", shards, rig.Cluster.Windows(), rig.Cluster.Posts(), rig.Kernel.Now())
	if res.Failed != 0 {
		t.Fatalf("shards=%d: %d reads failed", shards, res.Failed)
	}

	var fp strings.Builder
	fmt.Fprintf(&fp, "end=%v mean=%v p99=%v stats=%+v\n",
		res.End, res.MeanLatency(), res.LatencyPercentile(99), rig.SSD.Stats())
	for _, e := range trace.Events() {
		fmt.Fprintf(&fp, "%+v\n", e)
	}
	if rig.Metrics == nil || trace.Len() == 0 {
		t.Fatalf("shards=%d: merged observability stream missing (metrics=%v, %d events)",
			shards, rig.Metrics != nil, trace.Len())
	}
	return fp.String(), rig.SSD.Stats()
}

// TestShardedDeterminism pins byte-identical behavior across shard
// counts: the windowed single-kernel run (shards=1) is the reference,
// and every parallel sharding must reproduce it exactly — trace, host
// latencies, and counters. It also proves the cross-domain funnel
// carries every capability: the workload forces GC erases with urgent
// reads relayed into them.
func TestShardedDeterminism(t *testing.T) {
	ref, stats := shardedRun(t, 1)
	if stats.UrgentReads == 0 {
		t.Fatal("workload never exercised the urgent-read relay")
	}
	if stats.GCCycles == 0 || stats.GCCopybacks == 0 {
		t.Fatalf("workload never exercised GC/copyback: %+v", stats)
	}
	for _, shards := range []int{2, 3, 5} {
		got, _ := shardedRun(t, shards)
		if got != ref {
			t.Errorf("shards=%d diverged from shards=1:\n%s", shards, firstDiff(ref, got))
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestShardedHWBaseline runs the hardware controller sharded: the plain
// shardBackend (no copyback, no relay) must carry a full write+read
// pass, with suspend silently ignored like the legacy path.
func TestShardedHWBaseline(t *testing.T) {
	cfg := smallBuild(CtrlHW)
	cfg.Channels = 2
	cfg.SuspendReads = true
	cfg.Shards = 3
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindWrite,
		NumOps: logical * 2, QueueDepth: 4, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run()
	if res.Failed != 0 {
		t.Fatalf("%d writes failed", res.Failed)
	}
	if rig.SSD.Stats().UrgentReads != 0 {
		t.Error("HW backend claimed urgent reads")
	}
	reads, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: 40, QueueDepth: 4, LogicalPages: logical, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run()
	if reads.Failed != 0 {
		t.Fatalf("%d reads failed", reads.Failed)
	}
}

// TestShardedBuildShape pins the build-time plumbing: shard capping,
// per-shard coroutine pools, and the 1 µs host-hop lookahead.
func TestShardedBuildShape(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 4
	cfg.Ways = 1
	cfg.Shards = 32 // capped at 1 + channels
	rig := mustBuild(t, cfg)
	if got := rig.Cluster.Shards(); got != 5 {
		t.Errorf("shards = %d, want 5 (1 host + 4 channels)", got)
	}
	if rig.Cluster.Lookahead() != sim.Microsecond {
		t.Errorf("cluster lookahead = %v, want the 1us host hop", rig.Cluster.Lookahead())
	}
	// One pool per channel shard (the host shard runs no controller).
	if len(rig.CoroPools) != 4 {
		t.Errorf("%d coro pools, want 4", len(rig.CoroPools))
	}
	if rig.CoroPool == nil {
		t.Error("CoroPool alias not set")
	}

	// Unsharded stays legacy: no cluster, no per-shard pools.
	rig3 := mustBuild(t, smallBuild(CtrlBabolRTOS))
	if rig3.Cluster != nil || len(rig3.CoroPools) != 0 {
		t.Error("legacy build grew sharding state")
	}
}
