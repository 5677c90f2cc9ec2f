package ftl

import "fmt"

// Garbage-collection policy: watermark detection, greedy victim
// selection, and live-page relocation.

// NeedsGC reports whether a chip has run low on free blocks (at or below
// the reserved watermark).
func (f *FTL) NeedsGC(chip int) bool {
	cs := &f.chipsArr[chip]
	if cs.offline {
		return false
	}
	free := len(cs.freeList)
	if cs.active >= 0 {
		free++
	}
	return free <= f.reserved
}

// GCCandidate picks the sealed block with the fewest live pages on a
// chip (greedy policy) and returns its live logical pages. ok is false
// when no sealed block exists. liveLPNs is a per-chip buffer the FTL
// owns: it stays valid until that chip's next GCCandidate call.
func (f *FTL) GCCandidate(chip int) (block int, liveLPNs []int, ok bool) {
	cs := &f.chipsArr[chip]
	if cs.offline {
		return 0, nil, false
	}
	best, bestValid := -1, int(^uint(0)>>1)
	for b := range cs.blocks {
		blk := &cs.blocks[b]
		if !blk.sealed || blk.bad {
			continue
		}
		if blk.valid < bestValid {
			best, bestValid = b, blk.valid
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	blk := &cs.blocks[best]
	liveLPNs = cs.gcLive[:0]
	for _, lpn := range blk.lpns {
		if lpn != invalidLPN {
			liveLPNs = append(liveLPNs, lpn)
		}
	}
	cs.gcLive = liveLPNs
	return best, liveLPNs, true
}

// RelocateForGC re-allocates a live page during GC: it assigns a new
// physical page for lpn (counting a flash write but not a host write)
// and returns the destination. The caller copies the data and erases the
// victim afterwards.
func (f *FTL) RelocateForGC(lpn int) (Location, error) {
	loc, err := f.allocate(lpn, true)
	if err != nil {
		return loc, err
	}
	f.n.flashWrites++
	f.n.gcMoves++
	return loc, nil
}

// RelocateForGCOn is RelocateForGC pinned to one chip, for relocation
// mechanisms that cannot cross chips (NAND copyback moves data inside a
// single LUN). It fails only if the chip's GC stream is out of space,
// which the headroom rule prevents.
func (f *FTL) RelocateForGCOn(chip, lpn int) (Location, error) {
	if chip < 0 || chip >= f.chips {
		return Location{}, fmt.Errorf("ftl: chip %d out of range", chip)
	}
	if lpn < 0 || lpn >= f.logical {
		return Location{}, fmt.Errorf("ftl: LPN %d out of range [0,%d)", lpn, f.logical)
	}
	if !f.hasSpace(&f.chipsArr[chip], true) {
		return Location{}, fmt.Errorf("ftl: chip %d GC stream out of space", chip)
	}
	loc := f.place(chip, lpn, true)
	f.n.flashWrites++
	f.n.gcMoves++
	return loc, nil
}
