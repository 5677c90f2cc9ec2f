package ftl

import "fmt"

// The L2P map is one flat table of translation-page groups: group g
// holds the groupEntries entries of map page g (one NAND page each),
// the unit the translation cache (cache.go) pages in and out.
//
// Storage is lazy at group granularity: the outer table is allocated on
// the first write, then each group's entry slice on the first write into
// that group. Building a TB-class rig that touches a handful of LPNs
// therefore costs memory proportional to the touched translation pages,
// not the drive size.

// mapEntryBytes is the modeled DRAM cost of one L2P entry — the figure
// FMMU-style designs use when a 4-byte-PPN-plus-metadata entry is laid
// out in an 8-byte slot. It sizes translation-page groups
// (PageBytes/mapEntryBytes entries per map page) and converts the
// MapCacheBytes budget into cache slots.
const mapEntryBytes = 8

// unmapped fills the L2P entries of never-written or trimmed LPNs.
var unmapped = Location{Chip: -1}

// Lookup translates a logical page number. ok is false for never-written
// pages. Allocation-free.
func (f *FTL) Lookup(lpn int) (Location, bool) {
	if lpn < 0 || lpn >= f.logical || f.l2p == nil {
		return Location{}, false
	}
	group := f.l2p[lpn/f.groupEntries]
	if group == nil {
		return Location{}, false
	}
	loc := group[lpn%f.groupEntries]
	return loc, loc.Chip >= 0
}

// Invalidate drops a logical page's mapping (host TRIM, or a failed
// program whose mapping must not survive).
func (f *FTL) Invalidate(lpn int) {
	if lpn < 0 || lpn >= f.logical {
		return
	}
	f.clearMapping(lpn)
}

// clearMapping drops lpn's mapping if present: chip-side reverse entry,
// forward entry, live count, and the cache's dirty state for the owning
// map page.
func (f *FTL) clearMapping(lpn int) {
	loc, ok := f.Lookup(lpn)
	if !ok {
		return
	}
	f.invalidateLoc(loc)
	f.l2p[lpn/f.groupEntries][lpn%f.groupEntries] = unmapped
	f.live--
	f.markDirty(lpn)
}

// setMapping records lpn → loc, allocating the group's storage on first
// touch. The caller has already cleared any previous mapping.
func (f *FTL) setMapping(lpn int, loc Location) {
	if f.l2p == nil {
		f.l2p = make([][]Location, f.MapPages())
	}
	g := lpn / f.groupEntries
	if f.l2p[g] == nil {
		f.l2p[g] = make([]Location, f.groupEntries)
		for i := range f.l2p[g] {
			f.l2p[g][i] = unmapped
		}
	}
	f.l2p[g][lpn%f.groupEntries] = loc
	f.live++
	f.markDirty(lpn)
}

// MappedPages reports the number of live logical pages drive-wide.
func (f *FTL) MappedPages() int { return f.live }

// CheckInvariants verifies the bidirectional mapping consistency: every
// forward entry must point at a reverse entry naming it, per-block valid
// counts must match the reverse maps, the map-wide live count must equal
// both the mapped entries and the chips' live pages, and every resident
// translation page must sit in its own cache partition. Tests and the
// property suite call it after mutation storms.
func (f *FTL) CheckInvariants() error {
	mapped := 0
	for g, group := range f.l2p {
		for o, loc := range group {
			if loc.Chip < 0 {
				continue
			}
			mapped++
			lpn := g*f.groupEntries + o
			blk := &f.chipsArr[loc.Chip].blocks[loc.Row.Block]
			got := invalidLPN
			if blk.lpns != nil {
				got = blk.lpns[loc.Row.Page]
			}
			if got != lpn {
				return fmt.Errorf("ftl: L2P says LPN %d at %+v but reverse map says %d", lpn, loc, got)
			}
		}
	}
	if mapped != f.live {
		return fmt.Errorf("ftl: map live=%d but mapped entries count %d", f.live, mapped)
	}
	chipLive := 0
	for c := range f.chipsArr {
		cs := &f.chipsArr[c]
		live := 0
		for b := range cs.blocks {
			n := 0
			for _, lpn := range cs.blocks[b].lpns {
				if lpn != invalidLPN {
					n++
				}
			}
			if n != cs.blocks[b].valid {
				return fmt.Errorf("ftl: chip %d block %d valid=%d but reverse map has %d", c, b, cs.blocks[b].valid, n)
			}
			live += n
		}
		if live != cs.livePages {
			return fmt.Errorf("ftl: chip %d livePages=%d but blocks hold %d", c, cs.livePages, live)
		}
		chipLive += live
	}
	// The forward map and the per-chip reverse accounting are two views
	// of the same live-page population.
	if f.live != chipLive {
		return fmt.Errorf("ftl: map live count %d != chip live sum %d", f.live, chipLive)
	}
	return f.checkCache()
}
