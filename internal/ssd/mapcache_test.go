package ssd

import (
	"testing"

	"repro/internal/hic"
)

// mapCacheBuild widens smallBuild's logical space to 8 translation
// pages (64 blocks × 2 ways) so a 512-byte budget — one resident page
// per cache partition — keeps the clock evicting at test-scale op counts.
func mapCacheBuild(budget int64) BuildConfig {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Params.Geometry.BlocksPerLUN = 64
	cfg.MapCacheBytes = budget
	return cfg
}

// runRandomReads preloads a working set and drives the same seeded
// random-read workload on any rig, so cached and uncached runs are
// comparable op for op.
func runRandomReads(t *testing.T, rig *Rig, ops int) *hic.Result {
	t.Helper()
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: ops, QueueDepth: 4, LogicalPages: logical, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != ops || res.Failed != 0 {
		t.Fatalf("workload: %d completed, %d failed (want %d / 0)", res.Completed, res.Failed, ops)
	}
	auditDrained(t, rig)
	return res
}

// TestMapCacheMissesCostRealTime is the integration pin for the
// tentpole's miss model: the same random-read workload must finish
// strictly later in virtual time on a DRAM-starved rig than on one
// with the whole map resident, because every miss charges a NAND read
// of the translation page through the ordinary ops path.
func TestMapCacheMissesCostRealTime(t *testing.T) {
	const ops = 200
	baseline := mustBuild(t, mapCacheBuild(0))
	resBase := runRandomReads(t, baseline, ops)
	if cs := baseline.FTL.CacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("disabled cache moved counters: %+v", cs)
	}

	starved := mustBuild(t, mapCacheBuild(512))
	resStarved := runRandomReads(t, starved, ops)
	cs := starved.FTL.CacheStats()
	if cs.Misses == 0 || cs.Hits == 0 {
		t.Fatalf("starved rig should both hit and miss, got %+v", cs)
	}
	if cs.Evictions == 0 {
		t.Errorf("one slot per shard over 4 groups should evict, got %+v", cs)
	}
	if resStarved.Elapsed() <= resBase.Elapsed() {
		t.Errorf("map misses cost nothing: starved %v <= resident %v",
			resStarved.Elapsed(), resBase.Elapsed())
	}

	// Correctness must not depend on residency: spot-check data after
	// the cache has churned.
	loc, ok := starved.FTL.Lookup(3)
	if !ok {
		t.Fatal("LPN 3 unmapped after preload")
	}
	page, err := starved.Channel.Chip(loc.Chip).PeekPage(loc.Row)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 512)
	FillPattern(want, 3)
	for i := range want {
		if page[i] != want[i] {
			t.Fatalf("stored byte %d = %02x, want %02x", i, page[i], want[i])
		}
	}
}

// TestMapCacheWritePath pins the write-side gate: host writes acquire
// the translation page before taking a DRAM slot (the comment in
// admit explains the one-slot deadlock this ordering avoids), and
// write-dirtied pages flush on eviction.
func TestMapCacheWritePath(t *testing.T) {
	rig := mustBuild(t, mapCacheBuild(512))
	logical := rig.FTL.LogicalPages()
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindWrite,
		NumOps: 200, QueueDepth: 4, LogicalPages: logical, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Completed != 200 || res.Failed != 0 {
		t.Fatalf("workload: %d completed, %d failed", res.Completed, res.Failed)
	}
	cs := rig.FTL.CacheStats()
	if cs.Misses == 0 {
		t.Fatalf("random writes over 8 map pages never missed: %+v", cs)
	}
	if cs.Flushes == 0 {
		t.Errorf("evicting write-dirtied pages should flush: %+v", cs)
	}
	auditDrained(t, rig)
}

// TestMapCacheMetricsRollup pins the observability chain: KindMapCache
// events emitted by the SSD layer must land in the metrics snapshot
// and flip MapCacheActive, while an uncached rig's snapshot keeps the
// FTL section dormant (that gate is what keeps legacy analyze goldens
// byte-identical).
func TestMapCacheMetricsRollup(t *testing.T) {
	cfg := mapCacheBuild(512)
	cfg.Observe = true
	rig := mustBuild(t, cfg)
	runRandomReads(t, rig, 200)
	s := rig.Metrics.Snapshot()
	if !s.MapCacheActive() {
		t.Fatal("MapCacheActive false after cached run")
	}
	cs := rig.FTL.CacheStats()
	if s.MapHits != cs.Hits || s.MapMisses != cs.Misses ||
		s.MapEvictions != cs.Evictions || s.MapFlushes != cs.Flushes {
		t.Errorf("snapshot {%d %d %d %d} != FTL counters %+v",
			s.MapHits, s.MapMisses, s.MapEvictions, s.MapFlushes, cs)
	}
	if s.MapHitRate() <= 0 || s.MapHitRate() >= 1 {
		t.Errorf("MapHitRate = %v, want in (0,1)", s.MapHitRate())
	}

	plain := mapCacheBuild(0)
	plain.Observe = true
	rig2 := mustBuild(t, plain)
	runRandomReads(t, rig2, 50)
	if s2 := rig2.Metrics.Snapshot(); s2.MapCacheActive() {
		t.Error("uncached rig reports MapCacheActive")
	}
}
