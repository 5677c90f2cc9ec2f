// Package ftl implements a page-level Flash Translation Layer for one
// channel: logical-to-physical mapping, a striped write allocator that
// spreads load across the channel's chips, greedy garbage collection,
// and wear accounting.
//
// The FTL is a pure policy module: it decides *where* pages live and
// *what* to move, while the SSD assembly (internal/ssd) executes the
// resulting flash operations through a controller. That separation
// mirrors Figure 1, where the FTL requests page- and block-level
// operations that the Storage Controller implements.
//
// The package is split by concern:
//
//   - ftl.go: configuration, chip/block allocation state, write
//     allocator, wear accounting, recovery hooks (RetireBlock,
//     OfflineChip).
//   - l2p.go: the L2P map, one flat table of translation-page groups
//     with lazily allocated storage.
//   - cache.go: the DRAM-budgeted translation-page cache (FMMU-style
//     demand paging of map groups with clock eviction), split into one
//     partition per chip.
//   - gc.go: garbage-collection policy (victim selection, relocation).
//
// Like every rig component, an FTL has one owner: the goroutine running
// the rig's host domain. It takes no locks; callers that need a view
// from elsewhere read an obs.Metrics snapshot instead.
package ftl

import (
	"errors"
	"fmt"

	"repro/internal/onfi"
)

// Location is a physical page address on the channel.
type Location struct {
	Chip int
	Row  onfi.RowAddr
}

// invalidLPN marks a physical page holding no live logical page.
const invalidLPN = -1

// blockState tracks one physical block. The reverse map is cut from the
// chip's slab on first write (see newLPNs): a never-written block costs
// no O(pages) memory, which is what keeps TB-class geometries buildable.
type blockState struct {
	nextPage int   // write frontier within the block
	valid    int   // live pages
	lpns     []int // reverse map: page → LPN (or invalidLPN); nil until first write
	sealed   bool  // fully written
	bad      bool  // retired: never allocated or collected again
}

// chipState tracks allocation on one chip. Host and GC writes use
// separate active blocks ("streams"): GC must always be able to relocate
// a victim's live pages, so the host may never consume the space GC
// opened for itself.
type chipState struct {
	blocks    []blockState
	freeList  []int // erased blocks available for allocation
	active    int   // block accepting host writes (-1 none)
	activeGC  int   // block accepting GC relocations (-1 none)
	erases    int
	livePages int
	wear      []int // per-block erase counts (FTL's own view)
	gcLive    []int // GCCandidate's result buffer, reused per call
	// lpnSlab is what is left of the chip's current reverse-map slab,
	// every entry invalidLPN; lpnBlocks is the next slab's size in
	// blocks and lpnMade the blocks' worth all its slabs hold (see
	// newLPNs).
	lpnSlab            []int
	lpnBlocks, lpnMade int
	// offline removes the chip from every allocation and GC decision
	// after the controller declared it dead (see OfflineChip).
	offline bool
}

// Config assembles an FTL. The zero value of the optional fields picks
// the defaults New uses.
type Config struct {
	Geometry onfi.Geometry
	Chips    int
	// ReservedBlocks per chip are withheld from the logical capacity as
	// GC headroom (over-provisioning); at least one is required.
	ReservedBlocks int
	// MapCacheBytes bounds the DRAM the translation map may occupy:
	// map pages (groups of L2P entries, one NAND page each) are
	// demand-paged under this budget with clock eviction. 0 disables the
	// cache — the whole map is modeled as resident, the legacy behavior.
	// The budget is split evenly per cache partition (one per chip, each
	// over a contiguous range of map pages) and floored at one map page
	// per partition so every partition can make progress. See cache.go.
	MapCacheBytes int64
}

// FTL maps logical pages onto a channel of identical chips.
type FTL struct {
	geo      onfi.Geometry
	chips    int
	reserved int // blocks per chip kept free for GC (over-provisioning)
	logical  int

	// Forward map, one group of groupEntries entries per translation
	// page; see l2p.go. live counts the mapped LPNs.
	l2p          [][]Location
	live         int
	groupEntries int // L2P entries per translation page
	groupBytes   int

	// Translation-page cache; see cache.go. parts is nil when the cache
	// is disabled.
	cacheEnabled      bool
	budgetBytes       int64
	parts             []cachePart
	groupsPerPart     int
	slotsPerPartition int

	chipRR   int // round-robin write-striping cursor
	chipsArr []chipState

	n counters
}

// counters is the FTL's internal counter block.
type counters struct {
	hostWrites, flashWrites, gcMoves, gcErases, badBlocks     uint64
	mapHits, mapMisses, mapEvictions, mapFlushes, mapBypasses uint64
}

// Stats counts FTL activity.
type Stats struct {
	HostWrites  uint64 // logical page writes accepted
	FlashWrites uint64 // physical page programs issued (host + GC)
	GCMoves     uint64 // live pages relocated by GC
	GCErases    uint64
	BadBlocks   uint64 // blocks retired after program/erase failures
}

// WriteAmplification reports flash writes per host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.FlashWrites) / float64(s.HostWrites)
}

// New builds an FTL over `chips` identical chips with the given
// geometry and no map cache — the signature
// every pre-existing caller and test uses.
func New(geo onfi.Geometry, chips, reservedBlocks int) (*FTL, error) {
	return NewWithConfig(Config{Geometry: geo, Chips: chips, ReservedBlocks: reservedBlocks})
}

// NewWithConfig builds an FTL per cfg.
func NewWithConfig(cfg Config) (*FTL, error) {
	geo := cfg.Geometry
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Chips <= 0 {
		return nil, fmt.Errorf("ftl: need at least one chip, got %d", cfg.Chips)
	}
	if cfg.ReservedBlocks < 1 || cfg.ReservedBlocks >= geo.BlocksPerLUN {
		return nil, fmt.Errorf("ftl: reserved blocks %d out of range [1,%d)", cfg.ReservedBlocks, geo.BlocksPerLUN)
	}
	if cfg.MapCacheBytes < 0 {
		return nil, fmt.Errorf("ftl: negative map cache budget %d", cfg.MapCacheBytes)
	}
	f := &FTL{geo: geo, chips: cfg.Chips, reserved: cfg.ReservedBlocks}
	f.logical = f.chips * (geo.BlocksPerLUN - f.reserved) * geo.PagesPerBlk
	f.groupEntries = geo.PageBytes / mapEntryBytes
	if f.groupEntries < 1 {
		f.groupEntries = 1
	}
	f.groupBytes = f.groupEntries * mapEntryBytes
	f.initCache(cfg.MapCacheBytes)
	f.chipsArr = make([]chipState, cfg.Chips)
	for c := range f.chipsArr {
		cs := &f.chipsArr[c]
		cs.blocks = make([]blockState, geo.BlocksPerLUN)
		cs.wear = make([]int, geo.BlocksPerLUN)
		cs.active = -1
		cs.activeGC = -1
		cs.freeList = make([]int, 0, geo.BlocksPerLUN)
		for b := range cs.blocks {
			cs.freeList = append(cs.freeList, b)
		}
	}
	return f, nil
}

// lpnSlabEntries caps a reverse-map slab at 2,048 entries (16 KiB): 128
// blocks of 16 pages, and one block of anything over 1,024 pages.
const lpnSlabEntries = 2 << 10

// newLPNs cuts one block's reverse map, every entry invalidLPN, from the
// chip's slab. When the slab is used up it makes another, twice the last
// one's size up to lpnSlabEntries and never past the chip's last block,
// as pagebuf's page slabs grow: a chip that writes a few blocks makes
// about as many entries as it uses, one that writes them all makes a
// handful of slabs, not one per block, and no chip makes more than a map
// per block. Each map is cut with a full slice expression, so no append
// through one block's map reaches its neighbour.
func (f *FTL) newLPNs(cs *chipState) []int {
	ppb := f.geo.PagesPerBlk
	if len(cs.lpnSlab) < ppb {
		n := min(max(cs.lpnBlocks, 1), len(cs.blocks)-cs.lpnMade)
		cs.lpnBlocks = max(1, min(2*n, lpnSlabEntries/ppb))
		cs.lpnMade += n
		cs.lpnSlab = make([]int, n*ppb)
		for i := range cs.lpnSlab {
			cs.lpnSlab[i] = invalidLPN
		}
	}
	lpns := cs.lpnSlab[:ppb:ppb]
	cs.lpnSlab = cs.lpnSlab[ppb:]
	return lpns
}

// LogicalPages reports the exported logical capacity in pages.
func (f *FTL) LogicalPages() int { return f.logical }

// Geometry returns the per-chip geometry.
func (f *FTL) Geometry() onfi.Geometry { return f.geo }

// Chips reports the channel width the FTL manages.
func (f *FTL) Chips() int { return f.chips }

// Stats returns a snapshot of the counters.
func (f *FTL) Stats() Stats {
	return Stats{
		HostWrites:  f.n.hostWrites,
		FlashWrites: f.n.flashWrites,
		GCMoves:     f.n.gcMoves,
		GCErases:    f.n.gcErases,
		BadBlocks:   f.n.badBlocks,
	}
}

// AllocateWrite assigns the next physical page for a host write of lpn,
// invalidating any previous mapping, and returns where to program. The
// caller must then actually program the page and, on success, keep the
// mapping (on program failure call Invalidate and retry).
func (f *FTL) AllocateWrite(lpn int) (Location, error) {
	loc, err := f.allocate(lpn, false)
	if err != nil {
		return loc, err
	}
	f.n.hostWrites++
	f.n.flashWrites++
	return loc, nil
}

// allocate places lpn on some chip. Host allocations (gc=false) must
// leave one free block per chip untouched as GC headroom: garbage
// collection needs somewhere to relocate live pages, and granting the
// host the last block would deadlock a full drive.
func (f *FTL) allocate(lpn int, gc bool) (Location, error) {
	if lpn < 0 || lpn >= f.logical {
		return Location{}, fmt.Errorf("ftl: LPN %d out of range [0,%d)", lpn, f.logical)
	}
	// Find a chip with space first: a failed write must leave any
	// existing mapping (and its data) intact.
	for try := 0; try < f.chips; try++ {
		c := (f.chipRR + try) % f.chips
		if f.hasSpace(&f.chipsArr[c], gc) {
			f.chipRR = (c + 1) % f.chips // stripe round-robin
			return f.place(c, lpn, gc), nil
		}
	}
	return Location{}, errOutOfSpace
}

// errOutOfSpace is allocate's one failure a running drive meets: a
// stalled host write retries until GC frees a block, so the error is
// built once rather than per attempt.
var errOutOfSpace = errors.New("ftl: out of space (GC required on all chips)")

// place moves lpn onto a chip that has space in the given stream: the
// stale copy is dropped first, then the new page is taken and mapped.
// Dropping a copy never frees or closes a block, so the caller's
// hasSpace check still holds when allocateOn runs.
func (f *FTL) place(chip, lpn int, gc bool) Location {
	f.clearMapping(lpn)
	loc := f.allocateOn(chip, lpn, gc)
	f.setMapping(lpn, loc)
	return loc
}

// hasSpace reports whether a chip can accept one more page write in the
// given stream under the GC-headroom rule: the host may never open the
// last free block.
func (f *FTL) hasSpace(cs *chipState, gc bool) bool {
	if cs.offline {
		return false
	}
	if gc {
		return cs.activeGC >= 0 || len(cs.freeList) > 0
	}
	return cs.active >= 0 || len(cs.freeList) > 1
}

// allocateOn takes the chip's next page in the given stream and records
// the chip-side reverse mapping. The chip must have space (hasSpace);
// the map-side entry is the caller's to set.
func (f *FTL) allocateOn(chip, lpn int, gc bool) Location {
	cs := &f.chipsArr[chip]
	stream := &cs.active
	if gc {
		stream = &cs.activeGC
	}
	if *stream < 0 {
		// Wear-aware allocation: open the least-worn free block, so
		// erase cycles spread evenly instead of hammering whichever
		// block happens to sit at the list head (dynamic wear leveling).
		pick := 0
		for i := 1; i < len(cs.freeList); i++ {
			if cs.wear[cs.freeList[i]] < cs.wear[cs.freeList[pick]] {
				pick = i
			}
		}
		*stream = cs.freeList[pick]
		cs.freeList = append(cs.freeList[:pick], cs.freeList[pick+1:]...)
	}
	blk := &cs.blocks[*stream]
	if blk.lpns == nil {
		blk.lpns = f.newLPNs(cs)
	}
	row := onfi.RowAddr{Block: *stream, Page: blk.nextPage}
	blk.lpns[blk.nextPage] = lpn
	blk.valid++
	blk.nextPage++
	cs.livePages++
	if blk.nextPage == f.geo.PagesPerBlk {
		blk.sealed = true
		*stream = -1
	}
	return Location{Chip: chip, Row: row}
}

// invalidateLoc drops the chip-side reverse mapping at loc.
func (f *FTL) invalidateLoc(loc Location) {
	cs := &f.chipsArr[loc.Chip]
	blk := &cs.blocks[loc.Row.Block]
	if blk.lpns != nil && blk.lpns[loc.Row.Page] != invalidLPN {
		blk.lpns[loc.Row.Page] = invalidLPN
		blk.valid--
		cs.livePages--
	}
}

// FreeBlocks reports erased blocks available on a chip.
func (f *FTL) FreeBlocks(chip int) int {
	return len(f.chipsArr[chip].freeList)
}

// RetireBlock permanently removes a block from service after the media
// reported a program or erase failure (grown bad block). Live pages the
// caller could not relocate must be invalidated separately; the block is
// dropped from the free list and from both write streams and will never
// be selected again.
func (f *FTL) RetireBlock(chip, block int) {
	if chip < 0 || chip >= f.chips {
		return
	}
	cs := &f.chipsArr[chip]
	if block < 0 || block >= len(cs.blocks) || cs.blocks[block].bad {
		return
	}
	blk := &cs.blocks[block]
	blk.bad = true
	blk.sealed = true
	f.n.badBlocks++
	for i, b := range cs.freeList {
		if b == block {
			cs.freeList = append(cs.freeList[:i], cs.freeList[i+1:]...)
			break
		}
	}
	if cs.active == block {
		cs.active = -1
	}
	if cs.activeGC == block {
		cs.activeGC = -1
	}
}

// OfflineChip removes a chip from service after the controller
// declared it dead (unresponsive through RESET recovery): both write
// streams close, the chip stops being an allocation target, and GC
// never selects it again. Mappings that point at the chip are kept —
// the data may be partly recoverable offline — but reads against them
// are the caller's problem to fail fast.
func (f *FTL) OfflineChip(chip int) {
	if chip < 0 || chip >= f.chips {
		return
	}
	cs := &f.chipsArr[chip]
	cs.offline = true
	cs.active = -1
	cs.activeGC = -1
}

// ChipOffline reports whether a chip was removed from service.
func (f *FTL) ChipOffline(chip int) bool {
	if chip < 0 || chip >= f.chips {
		return false
	}
	return f.chipsArr[chip].offline
}

// ForceSealGC closes a chip's partially written GC-stream block so it
// becomes a collection candidate, wasting its unwritten pages. FTLs do
// this when the drive wedges with all garbage trapped in the open GC
// block: relocated pages that the host has since overwritten are dead,
// but an unsealed block can never be picked as a victim. Reports whether
// a block was sealed.
func (f *FTL) ForceSealGC(chip int) bool {
	if chip < 0 || chip >= f.chips {
		return false
	}
	cs := &f.chipsArr[chip]
	if cs.activeGC < 0 {
		return false
	}
	cs.blocks[cs.activeGC].sealed = true
	cs.activeGC = -1
	return true
}

// OnErased returns a block to a chip's free pool after the physical
// erase completed. Erasing a block that still holds live pages is a
// caller bug and panics.
func (f *FTL) OnErased(chip, block int) {
	cs := &f.chipsArr[chip]
	blk := &cs.blocks[block]
	if blk.valid != 0 {
		panic(fmt.Sprintf("ftl: erasing block %d on chip %d with %d live pages", block, chip, blk.valid))
	}
	for i := range blk.lpns {
		blk.lpns[i] = invalidLPN
	}
	blk.nextPage = 0
	blk.sealed = false
	cs.erases++
	cs.wear[block]++
	cs.freeList = append(cs.freeList, block)
	f.n.gcErases++
}

// WearSpread reports max−min erase counts across a chip's healthy
// blocks — the metric dynamic wear leveling bounds.
func (f *FTL) WearSpread(chip int) int {
	if chip < 0 || chip >= f.chips {
		return 0
	}
	cs := &f.chipsArr[chip]
	min, max, seen := 0, 0, false
	for b := range cs.blocks {
		if cs.blocks[b].bad {
			continue
		}
		w := cs.wear[b]
		if !seen {
			min, max, seen = w, w, true
			continue
		}
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	return max - min
}

// BlockWear reports the FTL-tracked erase count of one block.
func (f *FTL) BlockWear(chip, block int) int {
	if chip < 0 || chip >= f.chips {
		return 0
	}
	cs := &f.chipsArr[chip]
	if block < 0 || block >= len(cs.wear) {
		return 0
	}
	return cs.wear[block]
}

// LivePages reports mapped logical pages on a chip.
func (f *FTL) LivePages(chip int) int {
	return f.chipsArr[chip].livePages
}
