package ftl

import (
	"testing"

	"repro/internal/onfi"
)

// oracleGeo is small enough for a fuzz input to fill a chip, and its
// 64-byte pages make 8-entry translation pages, so even a 1-chip FTL
// spans several map pages and a multi-chip one several cache
// partitions.
func oracleGeo() onfi.Geometry {
	return onfi.Geometry{Planes: 1, BlocksPerLUN: 8, PagesPerBlk: 4, PageBytes: 64}
}

// FuzzFTLOracle checks the FTL against a map of mapped LPNs. The first
// input byte picks the shape (1–4 chips, a 0–7 map-page cache budget,
// 0 = cache off); every further byte pair is one operation: host write,
// trim, lookup, a GC pass (GCCandidate → RelocateForGC or
// RelocateForGCOn → OnErased), RetireBlock, OfflineChip, ForceSealGC,
// or a CacheAcquire/CacheInstall round trip. Chip and block arguments
// range past the geometry so out-of-range calls are exercised too.
// After every operation CheckInvariants must pass, every LPN must
// resolve exactly as the model says, no write may land on an offline
// chip or a retired block, BadBlocks must count the distinct in-range
// retirements, and an offline chip must never ask for GC or offer a
// victim. The seed corpus under testdata/fuzz covers a GC-heavy
// overwrite stream, recovery calls, and a starved cache.
func FuzzFTLOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		geo := oracleGeo()
		chips := 1 + int(data[0]%4)
		budget := int64(data[0]/4%8) * int64(geo.PageBytes)
		ftl, err := NewWithConfig(Config{Geometry: geo, Chips: chips, ReservedBlocks: 2, MapCacheBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		o := &oracle{t: t, f: ftl, mapped: map[int]bool{}, offline: map[int]bool{}, retired: map[[2]int]bool{}}
		for i := 1; i+1 < len(data); i += 2 {
			o.step(data[i], int(data[i+1]))
			o.check(i / 2)
		}
	})
}

// oracle is the reference model: which LPNs are mapped, which chips are
// offline, which blocks are retired, and how many cache lookups ran.
type oracle struct {
	t        *testing.T
	f        *FTL
	mapped   map[int]bool
	offline  map[int]bool
	retired  map[[2]int]bool
	acquires uint64
}

func (o *oracle) step(op byte, arg int) {
	f := o.f
	logical := f.LogicalPages()
	// Out-of-range chip and block arguments: -1 up to past the end.
	chip := arg%(f.Chips()+2) - 1
	block := arg/8%(oracleGeo().BlocksPerLUN+2) - 1
	switch op % 12 {
	case 0, 1, 2, 3:
		lpn := arg % logical
		before, wasMapped := f.Lookup(lpn)
		loc, err := f.AllocateWrite(lpn)
		if err != nil {
			// A failed write must leave the old mapping intact.
			if after, ok := f.Lookup(lpn); ok != wasMapped || after != before {
				o.t.Fatalf("failed write of LPN %d moved its mapping %+v → %+v", lpn, before, after)
			}
			return
		}
		if o.offline[loc.Chip] {
			o.t.Fatalf("LPN %d written to offline chip %d", lpn, loc.Chip)
		}
		if o.retired[[2]int{loc.Chip, loc.Row.Block}] {
			o.t.Fatalf("LPN %d written to retired block %+v", lpn, loc)
		}
		o.mapped[lpn] = true
	case 4:
		lpn := arg%(logical+2) - 1
		f.Invalidate(lpn)
		delete(o.mapped, lpn)
	case 5:
		// Lookup: check() below compares every LPN against the model.
	case 6, 7:
		o.gc(chip)
	case 8:
		f.RetireBlock(chip, block)
		if chip >= 0 && chip < f.Chips() && block >= 0 && block < oracleGeo().BlocksPerLUN {
			o.retired[[2]int{chip, block}] = true
		}
	case 9:
		f.OfflineChip(chip)
		if chip >= 0 && chip < f.Chips() {
			o.offline[chip] = true
		}
	case 10:
		f.ForceSealGC(chip)
	case 11:
		lpn := arg % logical
		mpn, hit := f.CacheAcquire(lpn)
		o.acquires++
		if !f.CacheEnabled() {
			if !hit {
				o.t.Fatalf("disabled cache missed LPN %d", lpn)
			}
			return
		}
		if mpn != lpn/f.GroupEntries() {
			o.t.Fatalf("LPN %d acquired map page %d, want %d", lpn, mpn, lpn/f.GroupEntries())
		}
		if !hit {
			f.CacheInstall(mpn)
			if _, hit := f.CacheAcquire(lpn); !hit {
				o.t.Fatalf("LPN %d missed right after installing map page %d", lpn, mpn)
			}
			o.acquires++
		}
	}
}

// gc runs one collection pass on chip the way the SSD layer does:
// relocate every live page of the greedy victim, then erase it. An odd
// chip pins the relocations to the victim's chip (copyback style).
func (o *oracle) gc(chip int) {
	f := o.f
	if chip < 0 || chip >= f.Chips() {
		return
	}
	victim, live, ok := f.GCCandidate(chip)
	if !ok {
		return
	}
	for _, lpn := range live {
		loc, mapped := f.Lookup(lpn)
		if !mapped || !o.mapped[lpn] || loc.Chip != chip || loc.Row.Block != victim {
			o.t.Fatalf("GC victim %d/%d lists LPN %d, which maps to %+v (%v)", chip, victim, lpn, loc, mapped)
		}
		var err error
		if chip%2 == 1 {
			_, err = f.RelocateForGCOn(chip, lpn)
		} else {
			_, err = f.RelocateForGC(lpn)
		}
		if err != nil {
			return // out of GC space: the victim keeps its live pages
		}
	}
	f.OnErased(chip, victim)
}

func (o *oracle) check(step int) {
	f := o.f
	o.t.Helper()
	if err := f.CheckInvariants(); err != nil {
		o.t.Fatalf("step %d: %v", step, err)
	}
	for lpn := 0; lpn < f.LogicalPages(); lpn++ {
		if _, ok := f.Lookup(lpn); ok != o.mapped[lpn] {
			o.t.Fatalf("step %d: Lookup(%d) mapped=%v, model says %v", step, lpn, ok, o.mapped[lpn])
		}
	}
	if got := f.MappedPages(); got != len(o.mapped) {
		o.t.Fatalf("step %d: MappedPages = %d, model holds %d", step, got, len(o.mapped))
	}
	if got := f.Stats().BadBlocks; got != uint64(len(o.retired)) {
		o.t.Fatalf("step %d: BadBlocks = %d, %d blocks retired", step, got, len(o.retired))
	}
	for c := -1; c <= f.Chips(); c++ {
		if f.ChipOffline(c) != o.offline[c] {
			o.t.Fatalf("step %d: ChipOffline(%d) = %v, model says %v", step, c, f.ChipOffline(c), o.offline[c])
		}
		if !o.offline[c] {
			continue
		}
		if f.NeedsGC(c) {
			o.t.Fatalf("step %d: offline chip %d reports NeedsGC", step, c)
		}
		if _, _, ok := f.GCCandidate(c); ok {
			o.t.Fatalf("step %d: offline chip %d offers a GC candidate", step, c)
		}
	}
	cs := f.CacheStats()
	if f.CacheEnabled() && cs.Hits+cs.Misses != o.acquires {
		o.t.Fatalf("step %d: %d hits + %d misses, %d acquires", step, cs.Hits, cs.Misses, o.acquires)
	}
	if info := f.CacheInfo(); info.Resident > info.MapPages || (info.Enabled && info.Resident > len(f.parts)*info.SlotsPerPartition) {
		o.t.Fatalf("step %d: %d map pages resident, %d partitions of %d slots", step, info.Resident, len(f.parts), info.SlotsPerPartition)
	}
}
