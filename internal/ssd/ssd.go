// Package ssd assembles a complete solid-state drive around one channel:
// host interface (internal/hic) → FTL (internal/ftl) → a channel
// controller → NAND packages. The controller slot accepts either the
// BABOL software-defined controller or the hardware baseline, which is
// exactly the swap the paper performs on the Cosmos+ OpenSSD for its
// end-to-end evaluation (Fig. 12).
package ssd

import (
	"errors"
	"fmt"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/ftl"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/sim"
)

// ErrReadOnly reports a write rejected because the drive has degraded to
// read-only mode: spare blocks are exhausted (or every chip is offline)
// and no garbage is left to collect, so new data can never be placed.
var ErrReadOnly = errors.New("ssd: drive is in read-only degraded mode")

// ErrChipOffline reports an access to a chip removed from service after
// a failed RESET recovery.
var ErrChipOffline = errors.New("ssd: chip is offline")

// ErrLPNOutOfRange reports a host command addressing a logical page
// outside [0, FTL.LogicalPages()) — NVMe's "LBA Out of Range" status.
var ErrLPNOutOfRange = errors.New("ssd: LPN out of range")

// Backend is the page-level controller interface the SSD drives. Both
// the BABOL controller and the hardware baseline adapt to it.
type Backend interface {
	// ReadPage reads n bytes of the page at row on chip into DRAM.
	ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error))
	// ProgramPage programs n bytes from DRAM into the page at row.
	ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error))
	// EraseBlock erases a block on chip.
	EraseBlock(chip, block int, done func(error))
	// Chip exposes the LUN for preloading.
	Chip(i int) *nand.LUN
}

// Config assembles an SSD.
type Config struct {
	Kernel  *sim.Kernel
	Backend Backend
	FTL     *ftl.FTL
	DRAM    *dram.Buffer
	// SlotBase/Slots carve the DRAM staging area: Slots in-flight
	// commands, each with one page-sized buffer at SlotBase.
	SlotBase int
	Slots    int
	// WithECC protects pages with the SEC-DED codec: parity is stored in
	// the spare area on program and verified/corrected on read.
	WithECC bool
	// UseCopyback relocates GC pages with NAND copyback (no channel data
	// transfer) when the backend supports it. Trades channel time for
	// skipping the ECC scrub on moved data.
	UseCopyback bool
	// SuspendReads lets host reads preempt in-flight GC erases via
	// erase suspension when the backend supports it — the tail-latency
	// optimization of [23], [54].
	SuspendReads bool
	// Tracer, when non-nil, receives SSD-level recovery decisions (chip
	// offlining, read-only degradation) as obs.KindRecovery events.
	Tracer obs.Tracer
}

// Stats counts SSD-level activity.
type Stats struct {
	HostReads      uint64
	HostWrites     uint64
	HostTrims      uint64
	GCCycles       uint64
	GCCopybacks    uint64
	UrgentReads    uint64 // reads served inside a suspended erase
	ECCCorrections uint64
	ECCFailures    uint64
	RecoveredOps   uint64 // operations reissued after an ONFI RESET revived a wedged chip
	OfflinedChips  uint64 // chips removed from service after recovery failed
	ReadOnly       bool   // drive has degraded to read-only mode
}

// SSD is one simulated drive.
type SSD struct {
	k       *sim.Kernel
	backend Backend
	ftl     *ftl.FTL
	mem     *dram.Buffer
	withECC bool
	// codec is the drive's ECC engine; its scratch is reused across every
	// encode/decode so the steady-state datapath allocates nothing. SSD
	// callbacks all run on the single-threaded simulation kernel, so one
	// codec per drive is safe.
	codec ecc.Codec

	pageBytes   int
	parityBytes int
	slotSize    int
	slotBase    int
	freeSlots   []int
	waiters     []func(int)
	// freeReads recycles host-read states (with their bound callbacks)
	// so the steady-state read path allocates nothing per command.
	freeReads []*readState

	// inflightPrograms counts in-flight PROGRAMs per LPN (host writes and
	// GC relocations): the FTL maps an LPN at allocation time, before the
	// program lands in the array, and the issue-first transaction
	// scheduler can reorder a later operation's latch burst ahead of the
	// program's data transfer. GC must therefore not relocate a page
	// whose program is still in flight — it would copy erased cells and
	// install the stale copy as the LPN's only mapping. programWaiters
	// holds the GC continuations parked on such pages.
	inflightPrograms map[int]int
	programWaiters   map[int][]func()

	// mapCache mirrors ftl.CacheEnabled(): when set, every host read
	// and write first acquires its LPN's translation page from the
	// FTL's map cache, and a miss charges a real NAND read of the map
	// page through the ordinary slot/backend path before the host op
	// proceeds. mapLoads coalesces concurrent misses on the same map
	// page: the first miss issues the flash read, later ones just park.
	mapCache bool
	mapLoads map[int][]mapWaiter

	gcRunning    map[int]bool
	useCopyback  bool
	suspendReads bool
	// offline marks chips removed from service after a failed RESET
	// recovery: the FTL stops allocating there and reads fail fast.
	offline map[int]bool
	// degraded latches read-only mode: writes fail with ErrReadOnly,
	// reads from surviving chips keep working.
	degraded bool
	tracer   obs.Tracer
	// eraseQueues holds the urgent-read sink for each chip with a
	// suspendable erase in flight: a same-domain urgentQueue on legacy
	// rigs, a cross-domain eraseRelay on sharded ones.
	eraseQueues map[int]urgentSink
	// stalledWrites wait for GC to free space.
	stalledWrites []hic.Command

	stats Stats
}

// New wires the SSD together.
func New(cfg Config) (*SSD, error) {
	if cfg.Kernel == nil || cfg.Backend == nil || cfg.FTL == nil || cfg.DRAM == nil {
		return nil, fmt.Errorf("ssd: Kernel, Backend, FTL, and DRAM are all required")
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("ssd: need at least one DRAM slot")
	}
	geo := cfg.FTL.Geometry()
	parity := 0
	if cfg.WithECC {
		parity = ecc.PageParityBytes(geo.PageBytes)
		if parity > geo.SpareBytes {
			return nil, fmt.Errorf("ssd: spare area %dB cannot hold %dB of ECC parity", geo.SpareBytes, parity)
		}
	}
	slotSize := geo.PageBytes + parity
	if _, err := cfg.DRAM.Window(cfg.SlotBase, cfg.Slots*slotSize); err != nil {
		return nil, fmt.Errorf("ssd: DRAM slots do not fit: %w", err)
	}
	s := &SSD{
		k:            cfg.Kernel,
		backend:      cfg.Backend,
		ftl:          cfg.FTL,
		mem:          cfg.DRAM,
		withECC:      cfg.WithECC,
		useCopyback:  cfg.UseCopyback,
		suspendReads: cfg.SuspendReads,
		eraseQueues:  make(map[int]urgentSink),
		pageBytes:    geo.PageBytes,
		parityBytes:  parity,
		slotSize:     slotSize,
		slotBase:     cfg.SlotBase,
		gcRunning:    make(map[int]bool),
		offline:      make(map[int]bool),
		tracer:       cfg.Tracer,

		inflightPrograms: make(map[int]int),
		programWaiters:   make(map[int][]func()),
	}
	if cfg.FTL.CacheEnabled() {
		s.mapCache = true
		s.mapLoads = make(map[int][]mapWaiter)
	}
	for i := 0; i < cfg.Slots; i++ {
		s.freeSlots = append(s.freeSlots, cfg.SlotBase+i*slotSize)
	}
	return s, nil
}

// FTL exposes the translation layer (read-only use intended).
func (s *SSD) FTL() *ftl.FTL { return s.ftl }

// Stats returns a snapshot of the counters.
func (s *SSD) Stats() Stats { return s.stats }

// acquireSlot hands a DRAM staging address to fn, immediately or once a
// slot frees.
func (s *SSD) acquireSlot(fn func(addr int)) {
	if n := len(s.freeSlots); n > 0 {
		addr := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		fn(addr)
		return
	}
	s.waiters = append(s.waiters, fn)
}

func (s *SSD) releaseSlot(addr int) {
	if len(s.waiters) > 0 {
		fn := s.waiters[0]
		s.waiters = s.waiters[1:]
		fn(addr)
		return
	}
	s.freeSlots = append(s.freeSlots, addr)
}

// Submit accepts one host command (implements hic.Submitter).
func (s *SSD) Submit(cmd hic.Command) {
	// One unsigned compare rejects negative and too-large LPNs alike,
	// before any map-cache acquire or DRAM slot: left to the FTL, a read
	// or trim out there would succeed silently (an unmapped page, a
	// no-op) while only the write failed.
	if logical := s.ftl.LogicalPages(); uint(cmd.LPN) >= uint(logical) {
		s.complete(cmd, fmt.Errorf("ssd: %s of LPN %d on a %d-page drive: %w", cmd.Kind, cmd.LPN, logical, ErrLPNOutOfRange))
		return
	}
	switch cmd.Kind {
	case hic.KindRead:
		s.stats.HostReads++
		s.read(cmd)
	case hic.KindWrite:
		s.stats.HostWrites++
		s.write(cmd)
	case hic.KindTrim:
		s.stats.HostTrims++
		s.trim(cmd)
	default:
		s.complete(cmd, fmt.Errorf("ssd: unknown command kind %d", cmd.Kind))
	}
}

func (s *SSD) complete(cmd hic.Command, err error) {
	if cmd.Done != nil {
		cmd.Done(err)
	}
}

func (s *SSD) read(cmd hic.Command) {
	if s.mapCache {
		mpn, hit := s.ftl.CacheAcquire(cmd.LPN)
		if !hit {
			s.mapMiss(mpn, mapWaiter{cmd: cmd})
			return
		}
		s.mapEvent("hit", -1)
	}
	s.readMapped(cmd)
}

// readMapped runs a host read whose translation page is resident (or
// whose drive models the whole map as resident — the cache-disabled
// default).
func (s *SSD) readMapped(cmd hic.Command) {
	loc, ok := s.ftl.Lookup(cmd.LPN)
	if !ok {
		// Reading a never-written page: NVMe returns zeroes; no flash
		// traffic is generated.
		s.complete(cmd, nil)
		return
	}
	if s.offline[loc.Chip] {
		s.complete(cmd, fmt.Errorf("ssd: read of LPN %d: %w", cmd.LPN, ErrChipOffline))
		return
	}
	r := s.getReadState()
	r.cmd = cmd
	r.loc = loc
	s.acquireSlot(r.startFn)
}

// readState carries one host read from slot acquisition through backend
// completion. Its callbacks are bound once and the SSD pools the states:
// a read in the steady state borrows everything it needs.
type readState struct {
	s        *SSD
	cmd      hic.Command
	loc      ftl.Location
	addr     int
	retries  int
	startFn  func(int)
	finishFn func(error)
}

func (s *SSD) getReadState() *readState {
	if n := len(s.freeReads); n > 0 {
		r := s.freeReads[n-1]
		s.freeReads[n-1] = nil
		s.freeReads = s.freeReads[:n-1]
		return r
	}
	r := &readState{s: s}
	r.startFn = r.start
	r.finishFn = r.finish
	return r
}

// start runs once the read holds a DRAM slot.
func (r *readState) start(addr int) {
	s := r.s
	r.addr = addr
	n := s.pageBytes + s.parityBytes
	// A suspendable erase on the target chip: jump the queue by
	// riding the erase operation's urgent-read service instead of
	// waiting multiple milliseconds behind it.
	if q := s.eraseQueues[r.loc.Chip]; q != nil {
		s.stats.UrgentReads++
		q.push(ops.UrgentRead{
			Addr: onfi.Addr{Row: r.loc.Row}, DramAddr: addr, N: n, Done: r.finishFn,
		})
		return
	}
	s.backend.ReadPage(r.loc.Chip, r.loc.Row, addr, n, r.finishFn)
}

// maxReadRetries bounds how many RESET-recovered reissues one host read
// gets before the chip is declared unusable.
const maxReadRetries = 3

// finish completes the read: ECC check, slot release, state recycle,
// host callback — recycled before the callback so a synchronously
// chained read reuses this state. A read aborted by RESET recovery is
// reissued (bounded); a dead chip is taken offline so later reads fail
// fast instead of burning a recovery cycle each.
func (r *readState) finish(err error) {
	s := r.s
	switch {
	case err == nil:
	case errors.Is(err, ops.ErrResetRecovered):
		if r.retries+1 < maxReadRetries {
			r.retries++
			s.stats.RecoveredOps++
			s.backend.ReadPage(r.loc.Chip, r.loc.Row, r.addr, s.pageBytes+s.parityBytes, r.finishFn)
			return
		}
		s.offlineChip(r.loc.Chip)
		err = fmt.Errorf("ssd: read wedged %d times on chip %d: %w", maxReadRetries, r.loc.Chip, ErrChipOffline)
	case errors.Is(err, ops.ErrChipDead):
		s.offlineChip(r.loc.Chip)
		err = fmt.Errorf("ssd: read of chip %d: %w", r.loc.Chip, ErrChipOffline)
	}
	if err == nil && s.withECC {
		err = s.decodeECC(r.addr)
	}
	s.releaseSlot(r.addr)
	cmd := r.cmd
	r.cmd = hic.Command{}
	r.retries = 0
	s.freeReads = append(s.freeReads, r)
	s.complete(cmd, err)
}

// urgentQueue feeds latency-critical reads to an interruptible erase.
// Pops advance a head index instead of reslicing away the front, so the
// backing array is reused once the queue drains rather than growing by
// every element ever pushed over the queue's lifetime.
type urgentQueue struct {
	items []ops.UrgentRead
	head  int
}

func (q *urgentQueue) push(ur ops.UrgentRead) { q.items = append(q.items, ur) }

// next pops the oldest urgent read; the erase operation calls it.
func (q *urgentQueue) next() (ops.UrgentRead, bool) {
	if q.head >= len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return ops.UrgentRead{}, false
	}
	ur := q.items[q.head]
	q.items[q.head] = ops.UrgentRead{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return ur, true
}

func (s *SSD) decodeECC(addr int) error {
	page, err := s.mem.Window(addr, s.pageBytes)
	if err != nil {
		return err
	}
	parity, err := s.mem.Window(addr+s.pageBytes, s.parityBytes)
	if err != nil {
		return err
	}
	corrected, err := s.codec.DecodePage(page, parity)
	s.stats.ECCCorrections += uint64(corrected)
	if err != nil {
		s.stats.ECCFailures++
		return fmt.Errorf("ssd: uncorrectable read: %w", err)
	}
	return nil
}

// scrubECC corrects a staged page in place and regenerates its parity —
// the GC-time scrub that keeps relocated data from accumulating raw bit
// errors across generations.
func (s *SSD) scrubECC(addr int) error {
	if err := s.decodeECC(addr); err != nil {
		return err
	}
	page, err := s.mem.Window(addr, s.pageBytes)
	if err != nil {
		return err
	}
	parity, err := s.mem.Window(addr+s.pageBytes, s.parityBytes)
	if err != nil {
		return err
	}
	return s.codec.EncodePageInto(parity, page)
}

// programStarted records an in-flight program against lpn's current
// mapping. Pair with programLanded once the program's outcome is known.
func (s *SSD) programStarted(lpn int) { s.inflightPrograms[lpn]++ }

// programLanded retires one in-flight program for lpn and, when none
// remain, releases GC continuations parked on the page.
func (s *SSD) programLanded(lpn int) {
	if n := s.inflightPrograms[lpn]; n > 1 {
		s.inflightPrograms[lpn] = n - 1
		return
	}
	delete(s.inflightPrograms, lpn)
	ws := s.programWaiters[lpn]
	if len(ws) == 0 {
		return
	}
	delete(s.programWaiters, lpn)
	for _, fn := range ws {
		fn()
	}
}

// awaitProgram parks fn until every in-flight program for lpn lands.
// Callers must have checked inflightPrograms[lpn] > 0.
func (s *SSD) awaitProgram(lpn int, fn func()) {
	s.programWaiters[lpn] = append(s.programWaiters[lpn], fn)
}

// trim deallocates a logical page (NVMe Dataset Management): the FTL
// drops the mapping, a later read returns zeroes, and GC stops
// relocating the page. Like a write, the translation page must be
// resident first — a trim dirties it — so trims pay map-cache misses
// like every other mutation.
func (s *SSD) trim(cmd hic.Command) {
	if s.degraded {
		s.complete(cmd, ErrReadOnly)
		return
	}
	if s.mapCache {
		mpn, hit := s.ftl.CacheAcquire(cmd.LPN)
		if !hit {
			s.mapMiss(mpn, mapWaiter{cmd: cmd, trim: true})
			return
		}
		s.mapEvent("hit", -1)
	}
	s.trimMapped(cmd)
}

// trimMapped runs a trim whose translation page is resident. A trim
// racing an in-flight program for the same LPN parks until the program
// lands (the host issued both concurrently, so "trim wins" ordering is
// legal — but invalidating under a program in flight would let GC see
// a half-settled mapping).
func (s *SSD) trimMapped(cmd hic.Command) {
	if s.degraded {
		s.complete(cmd, ErrReadOnly)
		return
	}
	if s.inflightPrograms[cmd.LPN] > 0 {
		s.awaitProgram(cmd.LPN, func() { s.trimMapped(cmd) })
		return
	}
	s.ftl.Invalidate(cmd.LPN)
	s.complete(cmd, nil)
}

// write expects the host payload to already be staged by the caller; the
// generator model writes a deterministic pattern derived from the LPN.
func (s *SSD) write(cmd hic.Command) {
	if s.degraded {
		s.complete(cmd, ErrReadOnly)
		return
	}
	if s.mapCache {
		// Acquire the translation page before taking a DRAM slot: the
		// map load itself needs a slot, so gating here keeps a
		// one-slot drive from deadlocking behind its own map read.
		mpn, hit := s.ftl.CacheAcquire(cmd.LPN)
		if !hit {
			s.mapMiss(mpn, mapWaiter{cmd: cmd, write: true})
			return
		}
		s.mapEvent("hit", -1)
	}
	s.writeMapped(cmd)
}

// writeMapped runs a host write whose translation page is resident. The
// degraded latch is re-checked: the drive may have gone read-only while
// this write waited on its map-page load.
func (s *SSD) writeMapped(cmd hic.Command) {
	if s.degraded {
		s.complete(cmd, ErrReadOnly)
		return
	}
	s.acquireSlot(func(addr int) {
		if err := s.stagePattern(addr, cmd.LPN); err != nil {
			s.releaseSlot(addr)
			s.complete(cmd, err)
			return
		}
		s.programWithRetry(cmd, addr, 0)
	})
}

// maxProgramRetries bounds grown-bad-block handling per host write.
const maxProgramRetries = 3

// programWithRetry allocates, programs, and — on a media FAIL — retires
// the grown-bad block and retries elsewhere, as every production FTL
// must (bad blocks grow over a drive's life; the host never sees them).
func (s *SSD) programWithRetry(cmd hic.Command, addr, attempt int) {
	loc, err := s.ftl.AllocateWrite(cmd.LPN)
	if err != nil {
		s.releaseSlot(addr)
		if s.degraded {
			// The drive already gave up on finding space; a write that
			// was mid-flight (holding a slot) when the mode latched must
			// fail like every other, not park forever.
			s.complete(cmd, ErrReadOnly)
			return
		}
		// Out of space: park the command and let GC free blocks —
		// a real drive back-pressures the host rather than failing.
		s.stalledWrites = append(s.stalledWrites, cmd)
		s.kickGC()
		return
	}
	n := s.pageBytes + s.parityBytes
	s.programStarted(cmd.LPN)
	s.backend.ProgramPage(loc.Chip, loc.Row, addr, n, func(err error) {
		if err == nil {
			s.programLanded(cmd.LPN)
			s.releaseSlot(addr)
			s.complete(cmd, nil)
			s.maybeGC(loc.Chip)
			return
		}
		s.ftl.Invalidate(cmd.LPN)
		switch {
		case errors.Is(err, ops.ErrChipDead):
			s.offlineChip(loc.Chip)
		case errors.Is(err, ops.ErrResetRecovered):
			// The chip wedged and a RESET revived it; the block is not
			// implicated, so retry elsewhere without retiring it.
			s.stats.RecoveredOps++
		default:
			s.ftl.RetireBlock(loc.Chip, loc.Row.Block)
		}
		if attempt+1 < maxProgramRetries {
			// Start the retry's program before retiring this one so the
			// in-flight count never dips to zero mid-retry (a parked GC
			// continuation must not run against the invalidated mapping).
			s.programWithRetry(cmd, addr, attempt+1)
			s.programLanded(cmd.LPN)
			return
		}
		s.programLanded(cmd.LPN)
		s.releaseSlot(addr)
		s.complete(cmd, err)
	})
}

// kickGC starts collection on every chip and fails stalled writes if no
// chip can make progress (true out-of-space).
func (s *SSD) kickGC() {
	started := false
	for chip := 0; chip < s.ftl.Chips(); chip++ {
		s.maybeGC(chip)
		if s.gcRunning[chip] {
			started = true
		}
	}
	if !started && len(s.stalledWrites) > 0 {
		// Last resort before declaring the drive full: garbage may be
		// trapped in a partially written GC block (relocated pages the
		// host has since overwritten). Force-seal those blocks so they
		// become collection candidates and retry.
		for chip := 0; chip < s.ftl.Chips(); chip++ {
			if s.ftl.ForceSealGC(chip) {
				s.maybeGC(chip)
				if s.gcRunning[chip] {
					started = true
				}
			}
		}
	}
	if !started && len(s.stalledWrites) > 0 {
		// No chip can collect and nothing is left to seal: the drive is
		// genuinely out of usable space. Degrade to read-only rather
		// than wedging — parked writes fail with ErrReadOnly and reads
		// of everything already written keep being served.
		s.enterDegraded()
	}
}

// offlineChip removes a chip from service after recovery failed: the
// FTL stops allocating there, future reads to it fail fast, and if
// every chip is gone the drive degrades to read-only.
func (s *SSD) offlineChip(chip int) {
	if s.offline[chip] {
		return
	}
	s.offline[chip] = true
	s.stats.OfflinedChips++
	s.ftl.OfflineChip(chip)
	s.recoveryEvent(chip, "chip-offline")
	for c := 0; c < s.ftl.Chips(); c++ {
		if !s.offline[c] {
			return
		}
	}
	s.enterDegraded()
}

// enterDegraded latches read-only mode: every parked and future write
// fails with ErrReadOnly, reads keep working, and the rig drains
// instead of wedging on writes it can never place. Draining the parked
// writes sits outside the latch guard on purpose — writes can stall
// after the transition (they were mid-flight when it happened) and must
// still be failed, every time.
func (s *SSD) enterDegraded() {
	if !s.degraded {
		s.degraded = true
		s.stats.ReadOnly = true
		s.recoveryEvent(-1, "read-only")
	}
	stalled := s.stalledWrites
	s.stalledWrites = nil
	for _, cmd := range stalled {
		s.complete(cmd, ErrReadOnly)
	}
}

// recoveryEvent emits an SSD-level recovery decision to the tracer.
func (s *SSD) recoveryEvent(chip int, label string) {
	if s.tracer == nil {
		return
	}
	s.tracer.Event(obs.Event{Time: s.k.Now(), Kind: obs.KindRecovery, Chip: chip, Label: label})
}

// drainStalled retries writes parked on out-of-space after GC reclaimed
// a block.
func (s *SSD) drainStalled() {
	if len(s.stalledWrites) == 0 {
		return
	}
	stalled := s.stalledWrites
	s.stalledWrites = nil
	for _, cmd := range stalled {
		s.write(cmd)
	}
}

// stagePattern fills a slot with the deterministic page content for lpn
// (and its parity when ECC is on).
func (s *SSD) stagePattern(addr, lpn int) error {
	w, err := s.mem.Window(addr, s.pageBytes)
	if err != nil {
		return err
	}
	FillPattern(w, lpn)
	if s.withECC {
		parity, err := s.mem.Window(addr+s.pageBytes, s.parityBytes)
		if err != nil {
			return err
		}
		return s.codec.EncodePageInto(parity, w)
	}
	return nil
}

// FillPattern writes the canonical test pattern for a logical page: a
// repeating LPN-derived sequence, so any read can be verified without
// storing a model of the whole drive.
func FillPattern(dst []byte, lpn int) {
	k := byte(lpn>>8) ^ byte(lpn)
	n := min(len(dst), 256)
	for i := range dst[:n] {
		dst[i] = k ^ byte(i)
	}
	// Byte i is k^byte(i), which repeats every 256 bytes, so the rest
	// is copies of the first period. A byte loop over the whole page
	// was most of a rig's set-up time, and how fast it ran depended on
	// where the linker happened to place it.
	for ; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}
