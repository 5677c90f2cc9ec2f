package ssd

import (
	"errors"

	"repro/internal/ftl"
	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/ops"
)

// Map-cache miss service: when the FTL's translation-page cache
// (ftl/cache.go) reports a miss, the host command parks here while the
// map page is read from NAND through the ordinary slot/backend path —
// the same DRAM staging, channel arbitration, and die timing a data
// read pays, so the translation cost appears in latency figures and
// traces rather than as a free counter bump. Concurrent misses on one
// map page coalesce behind a single flash read.
//
// Faults on map-page reads recover exactly like data reads: a
// RESET-recovered chip gets bounded reissues, a dead chip is taken
// offline. Either way the load completes and installs the page —
// the backing map (always materialized) stays authoritative, so a
// failed map read degrades timing fidelity, never correctness; an
// offline map chip models journal reconstruction from the surviving
// metadata copies.

// mapWaiter is one host command parked on a translation-page load. A
// plain struct, not a closure. Parked waiters are pooled list nodes:
// next links a load's queue or the SSD's free list, so parking allocates
// nothing once the pool covers the deepest backlog.
type mapWaiter struct {
	cmd  hic.Command
	next *mapWaiter
}

// mapLoad is one map page's NAND read and the host commands parked on
// it, oldest first. Loads are pooled with their callbacks bound once.
type mapLoad struct {
	s          *SSD
	mpn        int
	attempt    int
	loc        ftl.Location
	addr       int
	head, tail *mapWaiter

	startFn    func(int)
	readDoneFn func(error)
}

// mapMiss parks a host command on its map page's load, issuing the
// NAND read if this is the page's first outstanding miss.
func (s *SSD) mapMiss(mpn int, cmd hic.Command) {
	s.mapEvent("miss", s.ftl.MapPageLocation(mpn).Chip)
	node := s.freeWaiters
	if node != nil {
		s.freeWaiters = node.next
	} else {
		node = new(mapWaiter)
	}
	*node = mapWaiter{cmd: cmd}
	if l := s.mapLoads[mpn]; l != nil {
		l.tail.next = node
		l.tail = node
		return
	}
	l, ok := popFree(&s.freeMapLoads)
	if !ok {
		l = &mapLoad{s: s}
		l.startFn = l.start
		l.readDoneFn = l.readDone
	}
	l.mpn = mpn
	l.head, l.tail = node, node
	s.mapLoads[mpn] = l
	l.load(0)
}

// load charges the NAND read of the map page. The modeled location
// comes from the FTL's deterministic map layout; a chip that is already
// offline skips the flash read entirely (reconstruction from journaled
// metadata, no channel traffic to a dead die).
func (l *mapLoad) load(attempt int) {
	l.attempt = attempt
	l.loc = l.s.ftl.MapPageLocation(l.mpn)
	if l.s.ftl.ChipOffline(l.loc.Chip) {
		l.finish()
		return
	}
	l.s.acquireSlot(l.startFn)
}

// start runs once the load holds a DRAM slot. Raw page read: map pages
// carry firmware metadata with its own journaling/CRC story, not host
// data, so the host-data ECC decode and the urgent-read erase bypass
// both stay out of the path.
func (l *mapLoad) start(addr int) {
	l.addr = addr
	be, way := l.s.route(l.loc.Chip)
	be.ReadPage(way, l.loc.Row, addr, l.s.pageBytes, l.readDoneFn)
}

func (l *mapLoad) readDone(err error) {
	s := l.s
	s.releaseSlot(l.addr)
	switch {
	case err == nil:
	case errors.Is(err, ops.ErrResetRecovered):
		if l.attempt+1 < maxReadRetries {
			s.stats.RecoveredOps++
			l.load(l.attempt + 1)
			return
		}
		s.offlineChip(l.loc.Chip)
	case errors.Is(err, ops.ErrChipDead):
		s.offlineChip(l.loc.Chip)
	}
	l.finish()
}

// finish installs the loaded page, recycles the load and releases every
// command parked on it, in arrival order. A command released here that
// misses again starts a fresh load: this one is no longer listed.
func (l *mapLoad) finish() {
	s := l.s
	evicted, flushed := s.ftl.CacheInstall(l.mpn)
	if evicted {
		s.mapEvent("evict", -1)
	}
	if flushed {
		s.mapEvent("flush", -1)
	}
	delete(s.mapLoads, l.mpn)
	w := l.head
	l.head, l.tail = nil, nil
	s.freeMapLoads = append(s.freeMapLoads, l)
	for w != nil {
		next, cmd := w.next, w.cmd
		*w = mapWaiter{next: s.freeWaiters}
		s.freeWaiters = w
		s.mapped(cmd)
		w = next
	}
}

// mapEvent emits a map-cache trace event. chip is the map page's
// modeled LUN for misses and -1 where no die is involved.
func (s *SSD) mapEvent(label string, chip int) {
	if s.tracer == nil {
		return
	}
	s.tracer.Event(obs.Event{Time: s.k.Now(), Kind: obs.KindMapCache, Chip: int16(chip), Label: label})
}
