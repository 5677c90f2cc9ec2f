// Package ssd assembles a complete solid-state drive: host interface
// (internal/hic) → FTL (internal/ftl) → one controller per channel →
// NAND packages. The controller slot accepts either the BABOL
// software-defined controller or the hardware baseline, which is
// exactly the swap the paper performs on the Cosmos+ OpenSSD for its
// end-to-end evaluation (Fig. 12).
//
// Every host command passes one gate, admit: a read-only drive refuses
// writes and trims, and the command acquires its translation page (a
// miss parks it on the page's NAND load). mapped then runs the body of
// its kind; parked commands re-enter there, stalled writes at admit.
package ssd

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/fifo"
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
	k *sim.Kernel
	// channels holds one controller backend per channel: global chip c
	// is way c%ways of channel c/ways, whose LUNs hang off buses[c/ways].
	channels []backend
	buses    []*bus.Channel
	ways     int
	ftl      *ftl.FTL
	mem      *dram.Buffer
	withECC  bool
	// codec is the drive's ECC engine; its scratch is reused across every
	// encode/decode so the steady-state datapath allocates nothing. SSD
	// callbacks all run on the single-threaded simulation kernel, so one
	// codec per drive is safe.
	codec ecc.Codec

	pageBytes   int
	parityBytes int
	freeSlots   []int
	slotWaiters fifo.Queue[func(int)]
	// freeReads, freeWrites, freeMapLoads and freeWaiters recycle
	// host-read, host-write and map-load states (with their bound
	// callbacks) and parked map-miss waiters, so the steady-state host
	// path allocates nothing per command.
	freeReads    []*readState
	freeWrites   []*writeState
	freeMapLoads []*mapLoad
	freeWaiters  *mapWaiter

	// programs holds a gate for every LPN with PROGRAMs in flight (host
	// writes and GC relocations): the FTL maps an LPN at allocation time,
	// before the program lands in the array, and the issue-first
	// transaction scheduler can reorder a later operation's latch burst
	// ahead of the program's data transfer. GC must therefore not
	// relocate a page whose program is still in flight — it would copy
	// erased cells and install the stale copy as the LPN's only mapping.
	// A gate counts the page's programs and holds the GC steps and trims
	// parked on it; freeGates recycles the gates.
	programs  map[int]*programGate
	freeGates []*programGate

	// When the FTL's map cache is enabled, admit acquires each host
	// command's translation page, and a miss charges a NAND read of it
	// through the ordinary slot/backend path (mapcache.go). mapLoads
	// coalesces concurrent misses on the same map page.
	mapLoads map[int]*mapLoad

	// gc holds each chip's collection cycle. useCopyback and
	// suspendReads are the BABOL-only GC capabilities; Build sets them
	// from BuildConfig on BABOL rigs and never on the hardware baseline.
	gc           []*gcCycle
	useCopyback  bool
	suspendReads bool
	tracer       obs.Tracer
	// stalledWrites wait for GC to free space, oldest first.
	stalledWrites fifo.Queue[hic.Command]

	// stats.ReadOnly latches read-only mode: writes fail with
	// ErrReadOnly, reads from surviving chips keep working.
	stats Stats
}

// route maps a global chip to its channel's backend and its way there.
func (s *SSD) route(chip int) (backend, int) {
	return s.channels[chip/s.ways], chip % s.ways
}

// lun returns the LUN behind a global chip.
func (s *SSD) lun(chip int) *nand.LUN { return s.buses[chip/s.ways].Chip(chip % s.ways) }

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
	s.slotWaiters.Push(fn)
}

func (s *SSD) releaseSlot(addr int) {
	if fn, ok := s.slotWaiters.Pop(); ok {
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
	case hic.KindWrite:
		s.stats.HostWrites++
	case hic.KindTrim:
		s.stats.HostTrims++
	default:
		s.complete(cmd, fmt.Errorf("ssd: unknown command kind %d", cmd.Kind))
		return
	}
	s.admit(cmd)
}

func (s *SSD) complete(cmd hic.Command, err error) {
	if cmd.Done != nil {
		cmd.Done(err)
	}
}

// admit is the one gate into the drive: a read-only drive refuses
// writes and trims, then the command acquires its translation page
// before it takes a DRAM slot (a map load needs a slot too, so a
// one-slot drive cannot deadlock behind its own map read). A miss parks
// the command on the page's load (mapcache.go), which hands it to
// mapped.
func (s *SSD) admit(cmd hic.Command) {
	if s.stats.ReadOnly && cmd.Kind != hic.KindRead {
		s.complete(cmd, ErrReadOnly)
		return
	}
	if s.ftl.CacheEnabled() {
		mpn, hit := s.ftl.CacheAcquire(cmd.LPN)
		if !hit {
			s.mapMiss(mpn, cmd)
			return
		}
		s.mapEvent("hit", -1)
	}
	s.mapped(cmd)
}

// mapped runs a host command whose translation page is resident (or
// whose drive models the whole map as resident — the cache-disabled
// default). The read-only latch is checked again: the drive may have
// gone read-only while the command waited on a map-page load or, for a
// trim, on an in-flight program.
func (s *SSD) mapped(cmd hic.Command) {
	if s.stats.ReadOnly && cmd.Kind != hic.KindRead {
		s.complete(cmd, ErrReadOnly)
		return
	}
	switch cmd.Kind {
	case hic.KindRead:
		s.readMapped(cmd)
	case hic.KindWrite:
		w := s.getWriteState()
		w.cmd = cmd
		s.acquireSlot(w.startFn)
	default:
		s.trimMapped(cmd)
	}
}

// readMapped runs a host read whose translation page is resident.
func (s *SSD) readMapped(cmd hic.Command) {
	loc, ok := s.ftl.Lookup(cmd.LPN)
	if !ok {
		// Reading a never-written page: NVMe returns zeroes; no flash
		// traffic is generated.
		s.complete(cmd, nil)
		return
	}
	if s.ftl.ChipOffline(loc.Chip) {
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
	if r, ok := popFree(&s.freeReads); ok {
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
	if q := s.gc[r.loc.Chip].sink; q != nil {
		s.stats.UrgentReads++
		q.Push(ops.UrgentRead{
			Addr: onfi.Addr{Row: r.loc.Row}, DramAddr: addr, N: n, Done: r.finishFn,
		})
		return
	}
	be, way := s.route(r.loc.Chip)
	be.ReadPage(way, r.loc.Row, addr, n, r.finishFn)
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
			be, way := s.route(r.loc.Chip)
			be.ReadPage(way, r.loc.Row, r.addr, s.pageBytes+s.parityBytes, r.finishFn)
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

// popFree takes the most recently recycled entry off a free list.
func popFree[T any](free *[]T) (T, bool) {
	var zero T
	n := len(*free)
	if n == 0 {
		return zero, false
	}
	x := (*free)[n-1]
	(*free)[n-1] = zero
	*free = (*free)[:n-1]
	return x, true
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

// programGate is one LPN's in-flight programs and the continuations
// parked until they land.
type programGate struct {
	count   int
	waiters []programWaiter
}

// programWaiter is a continuation parked on an LPN's in-flight
// program: a GC cycle's next step, or a trim. A plain struct, like
// mapWaiter, so parking allocates nothing.
type programWaiter struct {
	gc   *gcCycle
	trim hic.Command // the parked trim when gc is nil
}

// programStarted records an in-flight program against lpn's current
// mapping. Pair with programLanded once the program's outcome is known.
func (s *SSD) programStarted(lpn int) {
	g := s.programs[lpn]
	if g == nil {
		if g, _ = popFree(&s.freeGates); g == nil {
			g = new(programGate)
		}
		s.programs[lpn] = g
	}
	g.count++
}

// programLanded retires one in-flight program for lpn and, when none
// remain, releases the continuations parked on the page in the order
// they parked.
func (s *SSD) programLanded(lpn int) {
	g := s.programs[lpn]
	if g.count--; g.count > 0 {
		return
	}
	delete(s.programs, lpn)
	for _, w := range g.waiters {
		if w.gc != nil {
			w.gc.step()
		} else {
			s.mapped(w.trim)
		}
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0]
	s.freeGates = append(s.freeGates, g)
}

// awaitProgram parks w until every in-flight program for lpn lands, and
// reports whether lpn had any.
func (s *SSD) awaitProgram(lpn int, w programWaiter) bool {
	g := s.programs[lpn]
	if g == nil {
		return false
	}
	g.waiters = append(g.waiters, w)
	return true
}

// trimMapped deallocates a logical page whose translation page is
// resident (NVMe Dataset Management): the FTL drops the mapping, a
// later read returns zeroes, and GC stops relocating the page. A trim
// racing an in-flight program for the same LPN parks until the program
// lands (the host issued both concurrently, so "trim wins" ordering is
// legal — but invalidating under a program in flight would let GC see
// a half-settled mapping).
func (s *SSD) trimMapped(cmd hic.Command) {
	if s.awaitProgram(cmd.LPN, programWaiter{trim: cmd}) {
		return
	}
	s.ftl.Invalidate(cmd.LPN)
	s.complete(cmd, nil)
}

// writeState carries one host write from slot acquisition through its
// program's completion — readState's twin, pooled the same way.
type writeState struct {
	s       *SSD
	cmd     hic.Command
	addr    int
	loc     ftl.Location
	attempt int

	startFn       func(int)
	programDoneFn func(error)
}

func (s *SSD) getWriteState() *writeState {
	if w, ok := popFree(&s.freeWrites); ok {
		return w
	}
	w := &writeState{s: s}
	w.startFn = w.start
	w.programDoneFn = w.programDone
	return w
}

// release recycles the state and returns its command, so a write chained
// synchronously from the host callback reuses this state.
func (w *writeState) release() hic.Command {
	cmd := w.cmd
	w.cmd = hic.Command{}
	w.s.freeWrites = append(w.s.freeWrites, w)
	return cmd
}

// start runs once the write holds a DRAM slot.
func (w *writeState) start(addr int) {
	s := w.s
	w.addr = addr
	if err := s.stagePattern(addr, w.cmd.LPN); err != nil {
		s.releaseSlot(addr)
		s.complete(w.release(), err)
		return
	}
	w.program(0)
}

// maxProgramRetries bounds grown-bad-block handling per host write.
const maxProgramRetries = 3

// program allocates, programs, and — on a media FAIL — retires the
// grown-bad block and retries elsewhere, as every production FTL must
// (bad blocks grow over a drive's life; the host never sees them).
func (w *writeState) program(attempt int) {
	s := w.s
	loc, err := s.ftl.AllocateWrite(w.cmd.LPN)
	if err != nil {
		s.releaseSlot(w.addr)
		cmd := w.release()
		if s.stats.ReadOnly {
			// The drive already gave up on finding space; a write that
			// was mid-flight (holding a slot) when the mode latched must
			// fail like every other, not park forever.
			s.complete(cmd, ErrReadOnly)
			return
		}
		// Out of space: park the command and let GC free blocks —
		// a real drive back-pressures the host rather than failing.
		s.stalledWrites.Push(cmd)
		s.kickGC()
		return
	}
	w.loc, w.attempt = loc, attempt
	s.programStarted(w.cmd.LPN)
	be, way := s.route(loc.Chip)
	be.ProgramPage(way, loc.Row, w.addr, s.pageBytes+s.parityBytes, w.programDoneFn)
}

func (w *writeState) programDone(err error) {
	s, lpn, loc := w.s, w.cmd.LPN, w.loc
	if err == nil {
		s.programLanded(lpn)
		s.releaseSlot(w.addr)
		s.complete(w.release(), nil)
		s.maybeGC(loc.Chip)
		return
	}
	s.programFailed(lpn, loc, err)
	if w.attempt+1 < maxProgramRetries {
		// Start the retry's program before retiring this one so the
		// in-flight count never dips to zero mid-retry (a parked GC
		// continuation must not run against the invalidated mapping).
		w.program(w.attempt + 1)
		s.programLanded(lpn)
		return
	}
	s.programLanded(lpn)
	s.releaseSlot(w.addr)
	s.complete(w.release(), err)
}

// programFailed triages a failed program of lpn at loc, for host writes
// and GC relocations alike: the page leaves the map, then a dead chip
// goes offline, a RESET-revived chip is counted (the block is not
// implicated, so the caller retries elsewhere without retiring it), and
// a media FAIL retires the grown-bad block.
func (s *SSD) programFailed(lpn int, loc ftl.Location, err error) {
	s.ftl.Invalidate(lpn)
	switch {
	case errors.Is(err, ops.ErrChipDead):
		s.offlineChip(loc.Chip)
	case errors.Is(err, ops.ErrResetRecovered):
		s.stats.RecoveredOps++
	default:
		s.ftl.RetireBlock(loc.Chip, loc.Row.Block)
	}
}

// kickGC starts collection on every chip and fails stalled writes if no
// chip can make progress (true out-of-space).
func (s *SSD) kickGC() {
	started := false
	for chip := 0; chip < s.ftl.Chips(); chip++ {
		s.maybeGC(chip)
		if s.gc[chip].running {
			started = true
		}
	}
	if !started && s.stalledWrites.Len() > 0 {
		// Last resort before declaring the drive full: garbage may be
		// trapped in a partially written GC block (relocated pages the
		// host has since overwritten). Force-seal those blocks so they
		// become collection candidates and retry.
		for chip := 0; chip < s.ftl.Chips(); chip++ {
			if s.ftl.ForceSealGC(chip) {
				s.maybeGC(chip)
				if s.gc[chip].running {
					started = true
				}
			}
		}
	}
	if !started && s.stalledWrites.Len() > 0 {
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
	if s.ftl.ChipOffline(chip) {
		return
	}
	s.ftl.OfflineChip(chip)
	s.stats.OfflinedChips++
	s.recoveryEvent(chip, "chip-offline")
	if s.stats.OfflinedChips == uint64(s.ftl.Chips()) {
		s.enterDegraded()
	}
}

// enterDegraded latches read-only mode: every parked and future write
// fails with ErrReadOnly, reads keep working, and the rig drains
// instead of wedging on writes it can never place. Draining the parked
// writes sits outside the latch guard on purpose — writes can stall
// after the transition (they were mid-flight when it happened) and must
// still be failed, every time.
func (s *SSD) enterDegraded() {
	if !s.stats.ReadOnly {
		s.stats.ReadOnly = true
		s.recoveryEvent(-1, "read-only")
	}
	for cmd, ok := s.stalledWrites.Pop(); ok; cmd, ok = s.stalledWrites.Pop() {
		s.complete(cmd, ErrReadOnly)
	}
}

// recoveryEvent emits an SSD-level recovery decision to the tracer.
func (s *SSD) recoveryEvent(chip int, label string) {
	if s.tracer == nil {
		return
	}
	s.tracer.Event(obs.Event{Time: s.k.Now(), Kind: obs.KindRecovery, Chip: int16(chip), Label: label})
}

// drainStalled retries writes parked on out-of-space after GC reclaimed
// a block, through the same gate as a new command. It takes only the
// writes parked when it starts: one that stalls again queues behind
// them for the next pass, and one that latches read-only empties the
// queue (enterDegraded).
func (s *SSD) drainStalled() {
	for n := s.stalledWrites.Len(); n > 0; n-- {
		if cmd, ok := s.stalledWrites.Pop(); ok {
			s.admit(cmd)
		}
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
	// Byte i is k^byte(i). Eight of them at once: the ramp's word j holds
	// bytes 8j…8j+7, and k repeats in every byte of kw.
	kw := uint64(k) * 0x0101010101010101
	ramp := uint64(0x0706050403020100)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], ramp^kw)
		ramp += 0x0808080808080808
	}
	for ; i < n; i++ {
		dst[i] = k ^ byte(i)
	}
	// The bytes repeat every 256, so the rest is copies of the first
	// period. A byte loop over the whole page was most of a rig's set-up
	// time, and how fast it ran depended on where the linker happened to
	// place it.
	for ; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}
