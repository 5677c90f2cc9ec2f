package ftl

import (
	"testing"

	"repro/internal/onfi"
)

// raceDetectorEnabled is flipped by ftl_race_test.go under -race so the
// alloc gates can skip themselves (the detector's instrumentation
// allocates, which would fail the 0-allocs assertions spuriously).
var raceDetectorEnabled = false

// cacheGeo gives one chip a 3-translation-page logical space so two
// cache slots are always under pressure: 38 exported blocks × 4 pages =
// 152 LPNs → groups of 64 entries at 512-byte pages → map pages
// {0,1,2}, first LPNs {0, 64, 128}.
func cacheGeo() onfi.Geometry {
	g := testGeo()
	g.BlocksPerLUN = 40
	return g
}

// cacheFTL builds a one-chip (so one-partition) FTL with room for
// exactly two resident translation pages (budget 1024 B / 512 B per
// group).
func cacheFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := NewWithConfig(Config{
		Geometry: cacheGeo(), Chips: 1, ReservedBlocks: 2, MapCacheBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MapPages(); got != 3 {
		t.Fatalf("MapPages = %d, want 3 (test geometry drifted)", got)
	}
	if info := f.CacheInfo(); info.SlotsPerPartition != 2 {
		t.Fatalf("SlotsPerPartition = %d, want 2 (test geometry drifted)", info.SlotsPerPartition)
	}
	return f
}

// TestCacheDisabledIsFree pins the legacy contract: with no budget the
// cache never engages — acquires always hit, installs are no-ops, and
// no counter moves. This is the byte-identity guarantee's FTL half.
func TestCacheDisabledIsFree(t *testing.T) {
	f, err := New(cacheGeo(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.CacheEnabled() {
		t.Fatal("cache enabled with zero budget")
	}
	for lpn := 0; lpn < 130; lpn += 13 {
		if _, err := f.AllocateWrite(lpn); err != nil {
			t.Fatal(err)
		}
		if _, hit := f.CacheAcquire(lpn); !hit {
			t.Fatalf("disabled cache missed lpn %d", lpn)
		}
	}
	if ev, fl := f.CacheInstall(1); ev || fl {
		t.Error("disabled CacheInstall evicted something")
	}
	if cs := f.CacheStats(); cs != (CacheStats{}) {
		t.Errorf("disabled cache moved counters: %+v", cs)
	}
	if info := f.CacheInfo(); info.Enabled || info.Resident != 0 {
		t.Errorf("disabled CacheInfo = %+v", info)
	}
}

// TestCacheMissInstallHit walks the demand-paging protocol: first touch
// of a translation page misses, install makes it resident, and every
// LPN in the same group then hits.
func TestCacheMissInstallHit(t *testing.T) {
	f := cacheFTL(t)
	mpn, hit := f.CacheAcquire(0)
	if hit || mpn != 0 {
		t.Fatalf("cold acquire = (%d, %v), want (0, false)", mpn, hit)
	}
	if ev, _ := f.CacheInstall(0); ev {
		t.Error("install into empty cache evicted")
	}
	// Same translation page (group 0 covers LPNs 0..63): hits.
	for _, lpn := range []int{0, 1, 63} {
		if _, hit := f.CacheAcquire(lpn); !hit {
			t.Errorf("lpn %d missed after group install", lpn)
		}
	}
	// Next group misses independently.
	if mpn, hit := f.CacheAcquire(64); hit || mpn != 1 {
		t.Errorf("lpn 64 acquire = (%d, %v), want (1, false)", mpn, hit)
	}
	// Double-install of a resident page must not evict.
	if ev, _ := f.CacheInstall(0); ev {
		t.Error("re-install of resident page evicted")
	}
	cs := f.CacheStats()
	if cs.Hits != 3 || cs.Misses != 2 || cs.Evictions != 0 {
		t.Errorf("stats = %+v, want 3 hits / 2 misses / 0 evictions", cs)
	}
	if cs.HitRate() != 0.6 {
		t.Errorf("HitRate = %v, want 0.6", cs.HitRate())
	}
}

// TestCacheClockEviction fills both slots and installs a third page:
// the clock must evict exactly one victim, keep the other resident,
// and a clean victim must not count as a flush.
func TestCacheClockEviction(t *testing.T) {
	f := cacheFTL(t)
	f.CacheAcquire(0)
	f.CacheInstall(0)
	f.CacheAcquire(64)
	f.CacheInstall(1)
	// Both slots referenced; the sweep clears both and takes the first —
	// group 0 is the deterministic victim.
	if ev, fl := f.CacheInstall(2); !ev || fl {
		t.Errorf("third install: evicted=%v flushed=%v, want true/false", ev, fl)
	}
	if _, hit := f.CacheAcquire(64); !hit {
		t.Error("group 1 should have survived the sweep")
	}
	if _, hit := f.CacheAcquire(0); hit {
		t.Error("group 0 should have been evicted")
	}
	cs := f.CacheStats()
	if cs.Evictions != 1 || cs.Flushes != 0 {
		t.Errorf("stats = %+v, want 1 clean eviction", cs)
	}
	if info := f.CacheInfo(); info.Resident != 2 {
		t.Errorf("Resident = %d, want 2", info.Resident)
	}
}

// TestCacheSecondChance pins the reference bit's effect: a recently hit
// page survives the sweep while an unreferenced one is taken.
func TestCacheSecondChance(t *testing.T) {
	f := cacheFTL(t)
	f.CacheInstall(0)
	f.CacheInstall(1)
	f.CacheInstall(2) // sweeps both refs clear, evicts group 0, installs group 2
	// Reference only group 2; group 1's bit stays clear.
	if _, hit := f.CacheAcquire(128); !hit {
		t.Fatal("group 2 not resident after install")
	}
	f.CacheInstall(0) // clock must pass over referenced group 2 and take group 1
	if _, hit := f.CacheAcquire(130); !hit {
		t.Error("referenced group 2 was evicted; second chance not honored")
	}
	if _, hit := f.CacheAcquire(64); hit {
		t.Error("unreferenced group 1 survived; wrong victim chosen")
	}
}

// TestCacheDirtyFlush pins write-back accounting: a mapping change on a
// resident page marks its slot dirty, and evicting that slot counts as
// a flush; the same change on a non-resident page is a bypass.
func TestCacheDirtyFlush(t *testing.T) {
	f := cacheFTL(t)
	f.CacheAcquire(0)
	f.CacheInstall(0)
	if _, err := f.AllocateWrite(0); err != nil { // dirties resident group 0
		t.Fatal(err)
	}
	f.CacheInstall(1)
	// Evict group 0: dirty victim → eviction AND flush.
	if ev, fl := f.CacheInstall(2); !ev || !fl {
		t.Errorf("evicting dirty page: evicted=%v flushed=%v, want both true", ev, fl)
	}
	// Mutating a non-resident group is a bypass, never a flush.
	if _, err := f.AllocateWrite(0); err != nil {
		t.Fatal(err)
	}
	cs := f.CacheStats()
	if cs.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", cs.Flushes)
	}
	if cs.Bypasses == 0 {
		t.Error("mutation of non-resident page did not count as bypass")
	}
}

// TestCacheBudgetFloor pins the sizing floor: any positive budget gives
// every partition at least one slot, so no partition can deadlock
// waiting for DRAM it was never granted.
func TestCacheBudgetFloor(t *testing.T) {
	f, err := NewWithConfig(Config{
		Geometry: testGeo(), Chips: 4, ReservedBlocks: 2,
		MapCacheBytes: 1, // far below one group
	})
	if err != nil {
		t.Fatal(err)
	}
	if info := f.CacheInfo(); info.SlotsPerPartition != 1 {
		t.Fatalf("SlotsPerPartition = %d, want floor of 1", info.SlotsPerPartition)
	}
	// The single slot still pages correctly in every partition.
	for _, lpn := range []int{0, 64} { // one LPN per partition at this layout
		if _, hit := f.CacheAcquire(lpn); hit {
			t.Errorf("lpn %d hit cold", lpn)
		}
		mpn := lpn / f.GroupEntries()
		f.CacheInstall(mpn)
		if _, hit := f.CacheAcquire(lpn); !hit {
			t.Errorf("lpn %d missed after install", lpn)
		}
	}
}

// TestConfigValidation pins NewWithConfig's rejection of nonsense
// budgets.
func TestConfigValidation(t *testing.T) {
	bad := Config{Geometry: testGeo(), Chips: 2, ReservedBlocks: 2}
	bad.MapCacheBytes = -1
	if _, err := NewWithConfig(bad); err == nil {
		t.Error("negative MapCacheBytes accepted")
	}
}

// TestMapPageLocationDeterministic pins the address transform misses
// are charged against: stable across calls, inside the geometry, and
// striped chip-first so concurrent misses spread across the channel.
func TestMapPageLocationDeterministic(t *testing.T) {
	f, err := NewWithConfig(Config{
		Geometry: testGeo(), Chips: 4, ReservedBlocks: 2, MapCacheBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	geo := testGeo()
	for mpn := 0; mpn < f.MapPages(); mpn++ {
		loc := f.MapPageLocation(mpn)
		if loc != f.MapPageLocation(mpn) {
			t.Fatalf("mpn %d: location not stable", mpn)
		}
		if loc.Chip != mpn%4 {
			t.Errorf("mpn %d on chip %d, want chip-first striping (%d)", mpn, loc.Chip, mpn%4)
		}
		if loc.Row.Block < 0 || loc.Row.Block >= geo.BlocksPerLUN ||
			loc.Row.Page < 0 || loc.Row.Page >= geo.PagesPerBlk {
			t.Errorf("mpn %d maps outside geometry: %+v", mpn, loc)
		}
	}
}

// TestAllocGateFTLLookup is the ISSUE 9 alloc gate: the translation
// fast path — Lookup, and CacheAcquire when the page is resident — must
// not allocate. A regression here puts GC pressure on every host op.
func TestAllocGateFTLLookup(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are skewed under -race")
	}
	f := cacheFTL(t)
	for lpn := 0; lpn < 64; lpn++ {
		if _, err := f.AllocateWrite(lpn); err != nil {
			t.Fatal(err)
		}
	}
	f.CacheAcquire(0)
	f.CacheInstall(0) // group 0 resident → hits from here on

	lpn := 0
	if got := testing.AllocsPerRun(200, func() {
		loc, ok := f.Lookup(lpn)
		if !ok || loc.Chip < 0 {
			t.Fatal("lookup failed")
		}
		lpn = (lpn + 7) % 64
	}); got != 0 {
		t.Errorf("Lookup allocates %.1f times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, hit := f.CacheAcquire(lpn); !hit {
			t.Fatal("unexpected miss on resident group")
		}
		lpn = (lpn + 7) % 64
	}); got != 0 {
		t.Errorf("hit-path CacheAcquire allocates %.1f times per call, want 0", got)
	}
}

// benchFTL builds an 8-chip FTL at 4 KiB pages: 7936 logical pages in
// 16 translation groups.
func benchFTL(b *testing.B) *FTL {
	b.Helper()
	f, err := NewWithConfig(Config{
		Geometry: onfi.Geometry{
			Planes: 1, BlocksPerLUN: 64, PagesPerBlk: 16,
			PageBytes: 4096, SpareBytes: 128,
		},
		Chips: 8, ReservedBlocks: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFTLLookup measures translation throughput on a fully mapped
// drive.
func BenchmarkFTLLookup(b *testing.B) {
	f := benchFTL(b)
	logical := f.LogicalPages()
	for lpn := 0; lpn < logical; lpn++ {
		if _, err := f.AllocateWrite(lpn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	lpn := 0
	for i := 0; i < b.N; i++ {
		if _, ok := f.Lookup(lpn); !ok {
			b.Fatal("unmapped")
		}
		// Prime stride so consecutive lookups hop translation groups.
		lpn = (lpn + 4099) % logical
	}
}

// allocateWithRelief is the benchmark's write path: overwrite lpn,
// running a GC sweep when the drive is out of space.
func allocateWithRelief(b *testing.B, f *FTL, lpn int) {
	// Sweep-then-retry until the allocation lands (bounded: a stuck
	// sweep means a bug, not pressure).
	for attempt := 0; attempt < 100; attempt++ {
		if _, err := f.AllocateWrite(lpn); err == nil {
			return
		}
		for chip := 0; chip < f.Chips(); chip++ {
			victim, live, ok := f.GCCandidate(chip)
			if !ok {
				continue
			}
			cleared := true
			for _, l := range live {
				if _, err := f.RelocateForGC(l); err != nil {
					cleared = false
					break
				}
			}
			if cleared {
				f.OnErased(chip, victim)
			}
		}
	}
	b.Fatal("ftl: GC relief made no progress after 100 sweeps")
}

// BenchmarkFTLAllocate measures steady-state overwrite allocation —
// map update, old-page invalidation, GC relief when the drive fills.
// Writes overwrite half the logical space so every allocation also
// invalidates.
func BenchmarkFTLAllocate(b *testing.B) {
	f := benchFTL(b)
	working := f.LogicalPages() / 2
	b.ResetTimer()
	lpn := 0
	for i := 0; i < b.N; i++ {
		allocateWithRelief(b, f, lpn)
		lpn = (lpn + 4099) % working
	}
}
