package ssd

import (
	"errors"

	"repro/internal/fifo"
	"repro/internal/ftl"
	"repro/internal/ops"
)

// Garbage collection: when a chip dips below its free-block watermark,
// the SSD picks the emptiest sealed block (greedy, via the FTL), copies
// its live pages to fresh locations through the controller, and erases
// the victim. GC runs one block at a time per chip and shares the normal
// datapath, so it naturally competes with host traffic for the channel.

// gcCycle is one chip's garbage-collection cycle. A chip runs at most
// one cycle at a time, so the SSD allocates one per chip at New and the
// cycle's callbacks are bound once: relocating a page or erasing a
// victim allocates nothing.
type gcCycle struct {
	s       *SSD
	chip    int
	running bool

	victim int
	live   []int // the FTL's GCCandidate buffer for this chip
	idx    int   // live[idx] is the page being relocated

	// The page in flight: its LPN, source, staging slot and — on the
	// slot path — the destination and attempt of its current program.
	lpn     int
	src     ftl.Location
	dst     ftl.Location
	addr    int
	attempt int

	// q is the urgent-read queue of the chip's suspendable erase; it is
	// drained when the erase completes, so each erase reuses it. sink
	// takes the chip's urgent reads while that erase is in flight: q
	// itself on a same-domain channel, a cross-domain eraseRelay on a
	// sharded one. It is nil otherwise.
	q    fifo.Queue[ops.UrgentRead]
	sink urgentSink

	slotFn           func(int)
	readDoneFn       func(error)
	programDoneFn    func(error)
	copybackDoneFn   func(error)
	erasedFn         func(error)
	nextUrgentReadFn func() (ops.UrgentRead, bool)
}

func newGCCycle(s *SSD, chip int) *gcCycle {
	g := &gcCycle{s: s, chip: chip}
	g.slotFn = g.slot
	g.readDoneFn = g.readDone
	g.programDoneFn = g.programDone
	g.copybackDoneFn = g.copybackDone
	g.erasedFn = g.erased
	g.nextUrgentReadFn = g.q.Pop
	return g
}

func (s *SSD) maybeGC(chip int) {
	g := s.gc[chip]
	if g.running || !s.ftl.NeedsGC(chip) {
		return
	}
	block, live, ok := s.ftl.GCCandidate(chip)
	if !ok {
		return
	}
	if len(live) == s.ftl.Geometry().PagesPerBlk {
		// Even the emptiest sealed block is fully live: collecting it
		// would burn one block to free one block. Wait for host
		// overwrites to create garbage instead of livelocking.
		return
	}
	g.running = true
	s.stats.GCCycles++
	g.victim, g.live, g.idx = block, live, 0
	g.step()
}

// step relocates live[idx:] one page at a time, then erases the victim.
// Pages with nothing to move are skipped in place; every other page
// returns here through a completion callback that advances idx.
func (g *gcCycle) step() {
	s := g.s
	for ; g.idx < len(g.live); g.idx++ {
		lpn := g.live[g.idx]
		if s.awaitProgram(lpn, programWaiter{gc: g}) {
			// The page's program has not landed in the array yet (the FTL
			// maps at allocation time, and the transaction scheduler may
			// run our relocation's read issue ahead of the program's data
			// transfer). Relocating now would copy erased cells; this
			// step waits until the program lands.
			return
		}
		src, ok := s.ftl.Lookup(lpn)
		if !ok || src.Row.Block != g.victim || src.Chip != g.chip {
			// The host overwrote this page since the candidate snapshot;
			// nothing to move.
			continue
		}
		g.lpn, g.src = lpn, src
		// Copyback path: relocate inside the LUN with no channel data
		// transfer, when Build enabled it (BABOL rigs only).
		if s.useCopyback {
			if dst, err := s.ftl.RelocateForGCOn(g.chip, lpn); err == nil {
				s.stats.GCCopybacks++
				s.programStarted(lpn)
				be, way := s.route(g.chip)
				be.CopybackPage(way, src.Row, dst.Row, g.copybackDoneFn)
				return
			}
			// No room for an intra-chip move (the chip's GC stream is
			// out of space): fall through to the cross-chip slot path
			// instead of silently abandoning the collection cycle
			// mid-block.
		}
		s.acquireSlot(g.slotFn)
		return
	}
	g.erase()
}

// next moves on to the page after the one just relocated (or dropped).
func (g *gcCycle) next() {
	g.idx++
	g.step()
}

func (g *gcCycle) copybackDone(err error) {
	s, lpn := g.s, g.lpn
	if err != nil {
		s.ftl.Invalidate(lpn)
		if errors.Is(err, ops.ErrChipDead) {
			s.offlineChip(g.chip)
		}
	}
	s.programLanded(lpn)
	g.next()
}

// slot runs once the relocation holds a DRAM slot: read the victim page
// into it.
func (g *gcCycle) slot(addr int) {
	s := g.s
	g.addr = addr
	be, way := s.route(g.src.Chip)
	be.ReadPage(way, g.src.Row, addr, s.pageBytes+s.parityBytes, g.readDoneFn)
}

func (g *gcCycle) readDone(err error) {
	s, addr := g.s, g.addr
	if err == nil && s.withECC {
		// Scrub in transit: correct accumulated bit errors and
		// regenerate parity, so relocations do not compound raw errors
		// generation over generation.
		err = s.scrubECC(addr)
	}
	if err != nil {
		// Unreadable victim page: drop it rather than wedge GC.
		s.ftl.Invalidate(g.lpn)
		s.releaseSlot(addr)
		g.next()
		return
	}
	g.program(0)
}

// program writes the staged page to a fresh location.
func (g *gcCycle) program(attempt int) {
	s := g.s
	dst, err := s.ftl.RelocateForGC(g.lpn)
	if err != nil {
		// No chip anywhere has room for GC writes: spares are exhausted
		// drive-wide. Degrade to read-only instead of abandoning the
		// cycle and leaving stalled writes parked forever.
		s.releaseSlot(g.addr)
		g.running = false
		s.enterDegraded()
		return
	}
	g.dst, g.attempt = dst, attempt
	s.programStarted(g.lpn)
	be, way := s.route(dst.Chip)
	be.ProgramPage(way, dst.Row, g.addr, s.pageBytes+s.parityBytes, g.programDoneFn)
}

func (g *gcCycle) programDone(err error) {
	s, lpn, addr := g.s, g.lpn, g.addr
	if err == nil {
		s.programLanded(lpn)
		s.releaseSlot(addr)
		g.next()
		return
	}
	s.programFailed(lpn, g.dst, err)
	if g.attempt+1 < maxProgramRetries {
		// The data is still staged in the slot: retry the relocation
		// elsewhere before landing this attempt, so the in-flight count
		// never dips to zero mid-retry.
		g.program(g.attempt + 1)
		s.programLanded(lpn)
		return
	}
	// Out of attempts: the page is dropped from the map rather than
	// wedging the collection cycle.
	s.programLanded(lpn)
	s.releaseSlot(addr)
	g.next()
}

// erase erases the victim once every live page has moved.
func (g *gcCycle) erase() {
	s := g.s
	be, way := s.route(g.chip)
	if s.suspendReads {
		// Same-domain channel: the erase pulls from our queue directly,
		// and we hand leftovers (reads that arrived after the erase's
		// last check) to the normal path on completion. A sharded
		// channel's domain owns the urgent queue instead, restarts any
		// leftovers itself, and hands back the sink that relays to it.
		g.sink = &g.q
		if sink := be.EraseBlockInterruptible(way, g.victim, g.nextUrgentReadFn, g.erasedFn); sink != nil {
			g.sink = sink
		}
		return
	}
	be.EraseBlock(way, g.victim, g.erasedFn)
}

// erased completes every erase path. A suspendable erase also drops its
// urgent-read sink and restarts its leftover reads; on the other paths
// the sink is absent and the queue empty.
func (g *gcCycle) erased(err error) {
	s := g.s
	switch {
	case err == nil:
		s.ftl.OnErased(g.chip, g.victim)
	case errors.Is(err, ops.ErrChipDead):
		// The chip wedged mid-erase and RESET could not revive it: take
		// the whole chip out of service (retiring one block on a dead
		// chip would be moot).
		s.offlineChip(g.chip)
	case errors.Is(err, ops.ErrResetRecovered):
		// The erase was aborted by RESET but the chip is healthy again;
		// leave the victim sealed so a later pass re-picks and re-erases
		// it.
		s.stats.RecoveredOps++
	default:
		// The block failed to erase: retire it, or GC would re-pick the
		// same victim forever.
		s.ftl.RetireBlock(g.chip, g.victim)
	}
	g.sink = nil
	be, way := s.route(g.chip)
	for ur, ok := g.q.Pop(); ok; ur, ok = g.q.Pop() {
		be.ReadPage(way, ur.Addr.Row, ur.DramAddr, ur.N, ur.Done)
	}
	g.finish()
}

// finish ends the cycle: retry writes parked on out-of-space, then keep
// collecting if the chip is still under the watermark.
func (g *gcCycle) finish() {
	g.running = false
	g.s.drainStalled()
	g.s.maybeGC(g.chip)
}
