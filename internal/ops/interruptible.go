package ops

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// UrgentRead is a latency-critical page read waiting to preempt a long
// array operation.
type UrgentRead struct {
	Addr     onfi.Addr
	DramAddr int
	N        int
	// Done is called when the read's data is in DRAM or the read
	// failed; a failed read does not fail the operation serving it.
	Done func(error)
}

// InterruptibleErase erases a block while servicing latency-critical
// reads that arrive mid-erase: whenever next returns an UrgentRead, the
// operation suspends the erase (61h), runs the read, drains any further
// urgent reads, and resumes (D2h) — the erase-suspend optimization from
// the literature the paper cites ([23], [54]). Being plain software, the
// whole policy fits in one operation; a hardware controller would need a
// new FSM and a re-spin.
//
// Between suspension checks the operation sleeps rather than polls, so a
// multi-millisecond erase does not spam the channel with status reads.
func InterruptibleErase(block int, next func() (UrgentRead, bool)) core.OpFunc {
	return func(ctx *core.Ctx) error {
		g := ctx.Geometry()
		if err := startErase(ctx, g, block); err != nil {
			return err
		}
		// Check a fraction of tBERS apart, so preemption latency stays
		// small against a ms-scale erase without burning the channel.
		return serveUntilReady(ctx, g, ctx.Params().TBERS/64, next, func() error {
			return fmt.Errorf("ops: interruptible erase of block %d reported FAIL", block)
		})
	}
}

// InterruptibleProgram programs a page while servicing latency-critical
// reads that arrive during tPROG, via program suspension — the program
// suspend/resume optimizations of [10], [52], [54]. Structure mirrors
// InterruptibleErase; tPROG is shorter than tBERS, so the check slice is
// finer.
func InterruptibleProgram(addr onfi.Addr, dramAddr, n int, next func() (UrgentRead, bool)) core.OpFunc {
	return func(ctx *core.Ctx) error {
		g := ctx.Geometry()
		if err := g.CheckAddr(addr); err != nil {
			return err
		}
		if err := startProgram(ctx, g, addr, dramAddr, n, onfi.CmdProgram2); err != nil {
			return err
		}
		return serveUntilReady(ctx, g, ctx.Params().TPROG/16, next, func() error {
			return fmt.Errorf("ops: interruptible program at %+v reported FAIL", addr.Row)
		})
	}
}

// serveUntilReady waits out the erase or program in flight on the
// operation's chip, checking every checkSlice (at least 10 µs): it first
// serves whatever urgent reads next yields (suspendAndServe), then
// reads the status once. fail builds the error for a FAIL status.
//
// A busy wait paced by sleeps is still a poll loop, so the checks are
// bounded by the package's worst-case busy time, with the same slack
// philosophy as onfi.Timing.PollBudget; suspend/serve excursions reset
// nothing.
func serveUntilReady(ctx *core.Ctx, g onfi.Geometry, checkSlice sim.Duration, next func() (UrgentRead, bool), fail func() error) error {
	chip := ctx.ChipIndex()
	checkSlice = max(checkSlice, 10*sim.Microsecond)
	budget := int(ctx.Params().WorstCaseBusy()/checkSlice)*4 + 64
	for checks := 0; ; {
		if ur, ok := pull(g, next); ok {
			if finished, err := suspendAndServe(ctx, g, ur, next, fail); finished || err != nil {
				return err
			}
			continue
		}
		s, err := ReadStatus(ctx, chip)
		if err != nil {
			return err
		}
		if s&onfi.StatusRDY != 0 {
			if s&onfi.StatusFail != 0 {
				return fail()
			}
			return nil
		}
		if checks++; checks >= budget {
			return recoverStuck(ctx, chip)
		}
		ctx.Sleep(checkSlice)
	}
}

// pull returns the next urgent read that names a valid page. A read
// with a bad address fails through its own Done without reaching the
// chip: latched mid-suspension, it would fail with the array still
// suspended.
func pull(g onfi.Geometry, next func() (UrgentRead, bool)) (UrgentRead, bool) {
	for {
		ur, ok := next()
		if !ok {
			return ur, false
		}
		err := g.CheckAddr(ur.Addr)
		if err == nil {
			return ur, true
		}
		if ur.Done != nil {
			ur.Done(err)
		}
	}
}

// noReads is the next of an operation with no urgent reads to pull.
func noReads() (UrgentRead, bool) { return UrgentRead{}, false }

// suspendAndServe suspends the erase or program in flight, runs ur plus
// any further urgent reads pull yields, and resumes. Each read's error
// goes to its Done; the array operation runs on unless a read's RESET
// recovery aborted it too. A suspend that races with completion finds
// the array done: fail checks its status before a READ latch demotes
// its FAIL to FailC, the reads run against the idle chip, and finished
// reports that the operation is over.
func suspendAndServe(ctx *core.Ctx, g onfi.Geometry, ur UrgentRead, next func() (UrgentRead, bool), fail func() error) (finished bool, err error) {
	ctx.Cmd(onfi.CmdSuspend)
	err = ctx.Submit().Err
	if finished = errors.Is(err, nand.ErrNotSuspendable); finished {
		err = waitOK(ctx, ctx.ChipIndex(), fail)
	} else if err == nil {
		_, err = pollReady(ctx, ctx.ChipIndex())
	}
	if err != nil {
		return finished, err
	}
	for ok := true; ok; ur, ok = pull(g, next) {
		err := readPage(ctx, g, ur.Addr, ur.DramAddr, ur.N, func() error {
			return fmt.Errorf("ops: urgent read at %+v reported FAIL", ur.Addr.Row)
		})
		if ur.Done != nil {
			ur.Done(err)
		}
		if !finished && (errors.Is(err, ErrResetRecovered) || errors.Is(err, ErrChipDead)) {
			return false, err
		}
	}
	if finished {
		return true, nil
	}
	ctx.Cmd(onfi.CmdResume)
	return false, ctx.Submit().Err
}
