package ops

import (
	"cmp"
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// CacheReadPages streams `count` consecutive pages starting at startRow
// using READ CACHE SEQUENTIAL: while page k transfers out of the cache
// register, the array already fetches page k+1, hiding tR behind the bus
// transfer. Pages land contiguously in DRAM at dramAddr.
func CacheReadPages(startRow onfi.RowAddr, count, dramAddr, pageBytes int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		if count <= 0 {
			return fmt.Errorf("ops: cache read of %d pages", count)
		}
		chip := ctx.ChipIndex()
		g := ctx.Geometry()
		if err := g.CheckAddr(onfi.Addr{Row: startRow}); err != nil {
			return err
		}
		// Initial READ starts the first array fetch.
		var lbuf [8]onfi.Latch
		ctx.CmdAddr(appendReadLatches(lbuf[:0], g, onfi.Addr{Row: startRow}, onfi.CmdRead2)...)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		for i := 0; i < count; i++ {
			// Wait for the array to finish the in-flight fetch: ARDY, not
			// RDY — the LUN stays RDY for cache-register transfers while
			// the array fetches the next page.
			s, err := pollStatus(ctx, chip, onfi.StatusARDY)
			if err != nil {
				return err
			}
			if s&onfi.StatusFail != 0 {
				return fmt.Errorf("ops: cache read FAIL at page %d", i)
			}
			if i < count-1 {
				// 0x31: current page → cache register, array starts the
				// next page; the transfer below overlaps that fetch.
				ctx.Cmd(onfi.CmdCacheRead)
			} else {
				// 0x3F: last page → cache register, no further fetch.
				ctx.Cmd(onfi.CmdCacheReadEnd)
			}
			ctx.ReadData(dramAddr+i*pageBytes, pageBytes)
			if res := ctx.Submit(); res.Err != nil {
				return res.Err
			}
		}
		return nil
	}
}

// ReadWithRetry reads a page and, when verify rejects the data (e.g. the
// ECC decoder reports uncorrectable errors), walks the vendor's
// read-retry voltage levels via SET FEATURES until the data verifies or
// the levels are exhausted — the READ RETRY flow from the literature
// [34], [48] that motivates software-defined operations.
//
// verify receives the DRAM window content after each attempt.
func ReadWithRetry(addr onfi.Addr, dramAddr, n int, verify func([]byte) bool) core.OpFunc {
	return func(ctx *core.Ctx) error {
		levels := ctx.Params().ReadRetryLevels
		if levels == 0 {
			return fmt.Errorf("ops: package %s has no read-retry support", ctx.Params().Name)
		}
		g := ctx.Geometry()
		// attempt reads the page and reports whether verify accepts it.
		attempt := func() (bool, error) {
			err := readPage(ctx, g, addr, dramAddr, n, func() error { return fmt.Errorf("ops: retry read FAIL") })
			if err != nil {
				return false, err
			}
			w, err := ctx.Controller().DRAM().Window(dramAddr, n)
			if err != nil {
				return false, err
			}
			return verify(w), nil
		}

		// Attempt 0: the power-on default level — the level every other
		// read in the system assumes, so nothing to restore on success.
		if ok, err := attempt(); err != nil || ok {
			return err
		}
		// Walk the retry table until a level verifies. Whatever happens
		// from here on, the package must leave at the default level: a
		// parked retry level skews the error injection of every
		// subsequent read on this LUN (nand's retryMismatch), silently
		// degrading healthy pages.
		ok := false
		for lvl := 0; lvl < levels && !ok; lvl++ {
			if err := setFeature(ctx, onfi.FeatReadRetry, [4]byte{byte(lvl)}); err != nil {
				return err
			}
			var err error
			if ok, err = attempt(); err != nil {
				return err
			}
		}
		if err := setFeature(ctx, onfi.FeatReadRetry, [4]byte{}); err != nil || ok {
			return err
		}
		return fmt.Errorf("ops: read retry exhausted %d levels at %+v", levels, addr.Row)
	}
}

// GangRead is the RAIL-style replicated read [32]: the page is stored at
// the same address on every chip in replicas, the READ command is
// gang-issued through the Chip Enable control in a single latch burst,
// and the data transfers from whichever replica becomes ready first —
// cutting tail latency when one chip is slow or busy.
//
// The operation must be started with ExtraChips covering all replicas.
func GangRead(replicas []int, addr onfi.Addr, dramAddr, n int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		if len(replicas) == 0 {
			return fmt.Errorf("ops: gang read with no replicas")
		}
		g := ctx.Geometry()
		if err := g.CheckAddr(addr); err != nil {
			return err
		}
		var mask bus.ChipMask
		for _, c := range replicas {
			mask |= bus.Mask(c)
		}
		// One broadcast latch burst starts tR on every replica at once
		// (paper §IV-A: "the Chip Control can be used to gang schedule a
		// particular operation").
		ctx.Chip(mask)
		var lbuf [8]onfi.Latch
		ctx.CmdAddr(appendReadLatches(lbuf[:0], g, onfi.Addr{Row: addr.Row}, onfi.CmdRead2)...)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		// Poll the replicas round-robin; first ready wins. The loop is
		// bounded like every poll loop: all replicas stuck past the
		// budget means no winner will ever emerge.
		winner := -1
		budget := pollBudget(ctx)
		for round := 0; winner < 0; round++ {
			if round >= budget {
				return fmt.Errorf("ops: gang read %v: %w", replicas, ErrStuckBusy)
			}
			for _, c := range replicas {
				s, err := ReadStatus(ctx, c)
				if err != nil {
					return err
				}
				if s&onfi.StatusRDY != 0 && s&onfi.StatusFail == 0 {
					winner = c
					break
				}
			}
		}
		ctx.Chip(bus.Mask(winner))
		return dataOut(ctx, addr.Col, dramAddr, n)
	}
}

// GangProgram replicates one DRAM buffer onto the same address of every
// chip in replicas with a single broadcast data burst — the write side of
// RAIL-style replication. All replicas program concurrently.
func GangProgram(replicas []int, addr onfi.Addr, dramAddr, n int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		if len(replicas) == 0 {
			return fmt.Errorf("ops: gang program with no replicas")
		}
		g := ctx.Geometry()
		if err := g.CheckAddr(addr); err != nil {
			return err
		}
		var mask bus.ChipMask
		for _, c := range replicas {
			mask |= bus.Mask(c)
		}
		ctx.Chip(mask)
		if err := startProgram(ctx, g, addr, dramAddr, n, onfi.CmdProgram2); err != nil {
			return err
		}
		// All replicas must finish cleanly; each wait is bounded with
		// RESET escalation like any single-chip poll.
		for _, c := range replicas {
			if err := waitOK(ctx, c, func() error { return fmt.Errorf("ops: gang program FAIL on chip %d", c) }); err != nil {
				return err
			}
		}
		return nil
	}
}

// EraseWithSuspend erases a block but suspends the erase partway to
// service a latency-critical page read, then resumes — the erase-suspend
// optimization from the literature [23], [54]. readAddr names the page to
// read during the suspension window; its data lands at dramAddr. An
// erase that finishes before suspendAfter runs out is not suspended: the
// read then runs after it. An erase FAIL outranks a failed read.
func EraseWithSuspend(block int, readAddr onfi.Addr, dramAddr, n int, suspendAfter sim.Duration) core.OpFunc {
	return func(ctx *core.Ctx) error {
		g := ctx.Geometry()
		if readAddr.Row.Block == block {
			return fmt.Errorf("ops: cannot read block %d while it is being erased", block)
		}
		if err := g.CheckAddr(readAddr); err != nil {
			return err
		}
		if err := startErase(ctx, g, block); err != nil {
			return err
		}
		// Let it run, then suspend, read and resume.
		ctx.Sleep(suspendAfter)
		fail := func() error { return fmt.Errorf("ops: erase of block %d reported FAIL", block) }
		var readErr error
		ur := UrgentRead{Addr: readAddr, DramAddr: dramAddr, N: n, Done: func(err error) { readErr = err }}
		finished, err := suspendAndServe(ctx, g, ur, noReads, fail)
		if err == nil && !finished {
			err = waitOK(ctx, ctx.ChipIndex(), fail)
		}
		return cmp.Or(err, readErr)
	}
}

// BootSequence initializes a freshly attached package the way BABOL's
// software environment expresses vendor boot flows (paper §IV-C): RESET,
// READ ID verification, then SET FEATURES to switch the data interface
// out of the boot-time SDR mode.
func BootSequence(wantID []byte, timingMode byte) core.OpFunc {
	return func(ctx *core.Ctx) error {
		// RESET and wait for the package to come back, then READ ID:
		// confirm we are talking to the package we think.
		if err := Reset()(ctx); err != nil {
			return err
		}
		var id []byte
		if err := ReadID(&id, len(wantID))(ctx); err != nil {
			return err
		}
		for i := range wantID {
			if id[i] != wantID[i] {
				return fmt.Errorf("ops: boot ID mismatch at byte %d: got %02X want %02X", i, id[i], wantID[i])
			}
		}
		// Switch the data interface (packages boot in SDR; cf. §IV-C).
		return setFeature(ctx, onfi.FeatTimingMode, [4]byte{timingMode})
	}
}
