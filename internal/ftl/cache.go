package ftl

import (
	"fmt"

	"repro/internal/onfi"
)

// The translation-page cache models FMMU-style demand paging of the
// L2P map: the map is stored on flash as fixed-size translation pages
// (groups of groupEntries entries, one NAND page each), and only a
// DRAM budget's worth of them is resident at a time. A translation
// that misses must first read the map page from NAND — the SSD layer
// (internal/ssd) charges that read through the ordinary ops path, so
// the cost lands in latency figures, not just counters.
//
// The budget is split evenly across cache partitions, one per chip,
// each owning a contiguous range of map pages: groups per partition =
// ⌈map pages ÷ chips⌉ (so a chip count above the map-page count
// collapses to one page per partition), slots per partition = budget
// slots ÷ partitions, floored at one so every partition can always make
// progress and capped at the partition's page count. Eviction is the
// clock (second-chance) algorithm over the partition's slots.
//
// Correctness never depends on residency: the backing map (l2p.go)
// is always authoritative, and the cache only decides whether a
// translation costs a NAND read first. With MapCacheBytes == 0 the
// cache is disabled and every path short-circuits to the legacy
// always-resident behavior — no counters move, no events fire, and
// results are byte-identical to pre-cache builds.

// cacheSlot is one resident translation page.
type cacheSlot struct {
	mpn   int  // global map-page number
	ref   bool // clock reference bit; set on every hit
	dirty bool // mapping in this group changed since install
}

// cachePart is one cache partition: the resident translation pages of
// a contiguous map-page range, under its own share of the budget and
// its own clock.
type cachePart struct {
	resident map[int]int // global map-page number → slot index
	slots    []cacheSlot
	used     int // occupied slots
	hand     int // clock hand
}

// initCache lays out the partitions and sizes their slot arrays from
// the byte budget.
func (f *FTL) initCache(budget int64) {
	f.budgetBytes = budget
	if budget <= 0 {
		return
	}
	f.cacheEnabled = true
	f.partition(f.chips, int(budget/int64(f.groupBytes)))
}

// partition splits the map pages into at most n contiguous partitions
// and the given number of slots evenly among them.
func (f *FTL) partition(n, slots int) {
	groups := f.MapPages()
	n = min(n, groups)
	f.groupsPerPart = (groups + n - 1) / n
	n = (groups + f.groupsPerPart - 1) / f.groupsPerPart
	f.slotsPerPartition = max(1, slots/n)
	f.parts = make([]cachePart, n)
	for i := range f.parts {
		k := min(f.slotsPerPartition, f.groupsPerPart, groups-i*f.groupsPerPart)
		f.parts[i] = cachePart{slots: make([]cacheSlot, k), resident: make(map[int]int, k)}
	}
}

// part returns the partition owning map page mpn.
func (f *FTL) part(mpn int) *cachePart { return &f.parts[mpn/f.groupsPerPart] }

// checkCache verifies the partition bookkeeping: each resident page
// lies in its partition's range and names the slot that holds it.
func (f *FTL) checkCache() error {
	for i := range f.parts {
		p := &f.parts[i]
		if len(p.resident) != p.used || p.used > len(p.slots) {
			return fmt.Errorf("ftl: cache partition %d holds %d pages in %d used of %d slots", i, len(p.resident), p.used, len(p.slots))
		}
		for mpn, idx := range p.resident {
			if mpn/f.groupsPerPart != i || p.slots[idx].mpn != mpn {
				return fmt.Errorf("ftl: map page %d resident in partition %d slot %d (slot names %d)", mpn, i, idx, p.slots[idx].mpn)
			}
		}
	}
	return nil
}

// CacheEnabled reports whether translations are demand-paged under a
// DRAM budget.
func (f *FTL) CacheEnabled() bool { return f.cacheEnabled }

// GroupEntries reports the number of L2P entries per translation page.
func (f *FTL) GroupEntries() int { return f.groupEntries }

// MapPages reports the total number of translation pages covering the
// logical space.
func (f *FTL) MapPages() int {
	return (f.logical + f.groupEntries - 1) / f.groupEntries
}

// mapPage returns the global map-page number owning an LPN.
func (f *FTL) mapPage(lpn int) int { return lpn / f.groupEntries }

// CacheAcquire checks whether lpn's translation page is resident.
// On a hit it marks the slot referenced and returns hit=true; the
// caller may translate immediately. On a miss the caller must model a
// NAND read of map page mpn and then call CacheInstall(mpn) before
// retrying the translation. With the cache disabled it always reports
// a hit (and counts nothing). Allocation-free on the hit path.
func (f *FTL) CacheAcquire(lpn int) (mpn int, hit bool) {
	if !f.cacheEnabled {
		return 0, true
	}
	if lpn < 0 || lpn >= f.logical {
		return 0, true
	}
	mpn = f.mapPage(lpn)
	p := f.part(mpn)
	if idx, ok := p.resident[mpn]; ok {
		p.slots[idx].ref = true
		f.n.mapHits++
		return mpn, true
	}
	f.n.mapMisses++
	return mpn, false
}

// CacheInstall makes map page mpn resident after its NAND read
// completed, evicting by clock if the partition's slots are full.
// Reports whether a victim was evicted and whether that victim was
// dirty (a dirty victim models a map-page write-back; the SSD layer
// counts it as a flush). Installing an already-resident page is a
// no-op — overlapping misses on the same page coalesce upstream, but a
// stale second install must not evict anything.
func (f *FTL) CacheInstall(mpn int) (evicted, flushedDirty bool) {
	if !f.cacheEnabled {
		return false, false
	}
	p := f.part(mpn)
	if _, ok := p.resident[mpn]; ok {
		return false, false
	}
	var idx int
	if p.used < len(p.slots) {
		idx = p.used
		p.used++
	} else {
		// Clock sweep: clear reference bits until one stays clear.
		// Terminates within two laps.
		for p.slots[p.hand].ref {
			p.slots[p.hand].ref = false
			p.hand = (p.hand + 1) % len(p.slots)
		}
		idx = p.hand
		p.hand = (p.hand + 1) % len(p.slots)
		victim := &p.slots[idx]
		delete(p.resident, victim.mpn)
		evicted = true
		flushedDirty = victim.dirty
		f.n.mapEvictions++
		if flushedDirty {
			f.n.mapFlushes++
		}
	}
	p.slots[idx] = cacheSlot{mpn: mpn, ref: true}
	p.resident[mpn] = idx
	return evicted, flushedDirty
}

// markDirtyLocked records that a mapping inside lpn's translation page
// changed. If the page is resident its slot goes dirty (the eventual
// eviction becomes a write-back). If it is not resident the change is
// counted as a bypass: paths that mutate the map without translating
// through the cache first (preload seeding, GC relocation — background
// machinery with its own metadata journaling in real firmware) modify
// the authoritative backing map directly.
func (f *FTL) markDirty(lpn int) {
	if !f.cacheEnabled {
		return
	}
	mpn := f.mapPage(lpn)
	p := f.part(mpn)
	if idx, ok := p.resident[mpn]; ok {
		p.slots[idx].dirty = true
	} else {
		f.n.mapBypasses++
	}
}

// MapPageLocation models where a translation page lives on flash so a
// miss can be charged as a real NAND read. Map pages are striped
// chip-first across the channel, then across blocks and pages — a
// deterministic address transform, not a second allocator: the timing
// model needs a plausible target LUN/row for channel and die
// contention, while the authoritative map itself stays in the backing
// tables (correctness never depends on what this address holds).
func (f *FTL) MapPageLocation(mpn int) Location {
	chip := mpn % f.chips
	rest := mpn / f.chips
	block := rest % f.geo.BlocksPerLUN
	page := (rest / f.geo.BlocksPerLUN) % f.geo.PagesPerBlk
	return Location{Chip: chip, Row: onfi.RowAddr{Block: block, Page: page}}
}

// CacheStats is a point-in-time snapshot of the translation-cache
// counters.
type CacheStats struct {
	Hits      uint64 // translations served from resident map pages
	Misses    uint64 // translations that charged a NAND map-page read
	Evictions uint64 // resident pages displaced by the clock
	Flushes   uint64 // evicted pages that were dirty (modeled write-back)
	Bypasses  uint64 // map mutations on non-resident pages (preload, GC)
}

// HitRate reports hits / (hits + misses), or 0 before any traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats snapshots the translation-cache counters.
func (f *FTL) CacheStats() CacheStats {
	return CacheStats{
		Hits:      f.n.mapHits,
		Misses:    f.n.mapMisses,
		Evictions: f.n.mapEvictions,
		Flushes:   f.n.mapFlushes,
		Bypasses:  f.n.mapBypasses,
	}
}

// CacheInfo describes the cache configuration and current residency.
type CacheInfo struct {
	Enabled           bool
	BudgetBytes       int64
	GroupEntries      int // L2P entries per translation page
	GroupBytes        int // modeled DRAM bytes per translation page
	SlotsPerPartition int
	MapPages          int // translation pages covering the logical space
	Resident          int // currently resident translation pages
}

// CacheInfo reports the cache configuration and a residency gauge.
func (f *FTL) CacheInfo() CacheInfo {
	info := CacheInfo{
		Enabled:           f.cacheEnabled,
		BudgetBytes:       f.budgetBytes,
		GroupEntries:      f.groupEntries,
		GroupBytes:        f.groupBytes,
		SlotsPerPartition: f.slotsPerPartition,
		MapPages:          f.MapPages(),
	}
	for i := range f.parts {
		info.Resident += f.parts[i].used
	}
	return info
}
