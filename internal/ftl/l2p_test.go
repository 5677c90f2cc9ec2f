package ftl

import (
	"runtime"
	"testing"

	"repro/internal/onfi"
)

// TestLazyMapMemoryFootprint is the memory regression gate for lazy map
// storage: building a large-geometry FTL and touching a handful of LPNs
// must cost memory proportional to the touched translation groups, not
// the drive capacity. An eager layout would allocate the full L2P table
// plus every block's reverse map up front (~100 MB at this shape); lazy
// init defers both to first write.
func TestLazyMapMemoryFootprint(t *testing.T) {
	geo := onfi.Geometry{
		Planes: 1, BlocksPerLUN: 4096, PagesPerBlk: 128,
		PageBytes: 4096, SpareBytes: 128,
	}
	const chips = 8
	logical := chips * (geo.BlocksPerLUN - 2) * geo.PagesPerBlk
	// What an eager layout pays before the first host op: 16-byte L2P
	// entries, a mapped bitmap, and an 8-byte reverse-map entry per
	// physical page.
	eager := uint64(logical)*17 + uint64(chips*geo.BlocksPerLUN*geo.PagesPerBlk)*8
	if eager < 50<<20 {
		t.Fatalf("geometry too small to make the point: eager cost only %d bytes", eager)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := New(geo, chips, 2)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn < 100; lpn++ {
		if _, err := f.AllocateWrite(lpn); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := after.HeapAlloc - before.HeapAlloc
	if loc, ok := f.Lookup(50); !ok || loc.Chip < 0 {
		t.Fatal("written page did not map")
	}
	// Block metadata stays eager (small); the budget below allows it
	// plus the touched groups with room for allocator noise, while
	// sitting far under the eager table cost.
	if limit := eager / 8; delta > limit {
		t.Errorf("building + touching 100 LPNs cost %d bytes of heap; want < %d (eager layout cost %d)",
			delta, limit, eager)
	}
	runtime.KeepAlive(f)
}

// TestShardLayoutRoundsToGroups pins the cache partition rule:
// partitions are whole, contiguous translation-page ranges, one per
// chip, the count caps at the map-page count, and every map page lands
// in exactly one partition.
func TestShardLayoutRoundsToGroups(t *testing.T) {
	// testGeo: 512B pages → 64 entries per translation page; 4 chips ×
	// 6 exported blocks × 4 pages = 96 LPNs → 2 map pages, so the 4
	// chips' partitions collapse to 2.
	f, err := NewWithConfig(Config{
		Geometry: testGeo(), Chips: 4, ReservedBlocks: 2, MapCacheBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(wantParts, wantPer int) {
		t.Helper()
		if len(f.parts) != wantParts || f.groupsPerPart != wantPer {
			t.Fatalf("%d partitions of %d map pages, want %d of %d",
				len(f.parts), f.groupsPerPart, wantParts, wantPer)
		}
		covered := 0
		for i := range f.parts {
			if n := len(f.parts[i].slots); n < 1 || n > f.groupsPerPart {
				t.Errorf("partition %d has %d slots, want 1..%d", i, n, f.groupsPerPart)
			}
			covered += min(f.groupsPerPart, f.MapPages()-i*f.groupsPerPart)
		}
		if covered != f.MapPages() {
			t.Errorf("partitions cover %d map pages, want %d", covered, f.MapPages())
		}
	}
	check(2, 1)
	// 64 requested partitions collapse to the 2 map pages as well.
	f.partition(64, 0)
	check(2, 1)
	// cacheGeo on 2 chips: 304 LPNs → 5 map pages, ⌈5/2⌉ = 3 per
	// partition with the last one short. 8 budget slots give 4 per
	// partition, capped at each partition's page count.
	if f, err = NewWithConfig(Config{
		Geometry: cacheGeo(), Chips: 2, ReservedBlocks: 2, MapCacheBytes: 4096,
	}); err != nil {
		t.Fatal(err)
	}
	check(2, 3)
	if a, b := len(f.parts[0].slots), len(f.parts[1].slots); a != 3 || b != 2 {
		t.Errorf("partition slots = %d, %d; want 3, 2", a, b)
	}
	if f.part(2) != &f.parts[0] || f.part(3) != &f.parts[1] {
		t.Error("map pages 2 and 3 must straddle the partition boundary")
	}
}
