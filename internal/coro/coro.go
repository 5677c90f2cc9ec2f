// Package coro provides deterministic cooperative coroutines: the Go
// equivalent of the C++20 coroutines (and FreeRTOS tasks) BABOL writes
// its flash operations in.
//
// A coroutine is ordinary sequential code that suspends at explicit Yield
// points. Exactly one coroutine runs at a time: Resume hands control to
// the coroutine and blocks until it yields or finishes, so the simulation
// kernel always observes a single logical thread — mirroring the paper's
// single firmware core — and execution is fully deterministic.
//
// Coroutines run on the Go runtime's own coroutine switch (iter.Pull):
// Resume and Yield hand the thread directly from one goroutine to the
// other, without the scheduler. The cost of a context switch in
// *virtual* time is charged separately by the controller through
// cpumodel; the host-level switch is an implementation detail. Creating
// a runtime coroutine is not free, though (a goroutine and a dozen
// allocations), so every coroutine comes from a Pool: a finished
// coroutine parks on the pool's free list and the next Get reuses it at
// resume-level cost.
package coro

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrAborted is the error a coroutine finishes with when Abort unwinds it
// at a yield point.
var ErrAborted = errors.New("coro: aborted")

// abortSignal is the panic sentinel used to unwind an aborted coroutine.
type abortSignal struct{}

// Coroutine is a suspended computation. Create with Pool.Get; drive with
// Resume; dispose with Abort if abandoning it before completion.
//
// A Coroutine handle is invalidated the moment it finishes (the
// goroutine parks itself for reuse, and a later Pool.Get may hand the
// same handle to a new owner). Resume and Abort on a finished handle
// remain safe no-ops, but callers must drop the handle after observing
// completion rather than stashing it.
type Coroutine struct {
	// next switches into the coroutine; stop ends a worker parked
	// between bodies (Pool.Close). yield, captured on the first run,
	// switches back out to whoever called next.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// y is the coroutine-side handle, embedded so reuse allocates
	// nothing.
	y Yielder

	// fn is the body of the current run; Pool.Get installs a fresh one
	// on reuse.
	fn func(*Yielder) error

	// The fields below are only touched by the side holding control, and
	// the runtime's switch orders every hand-over, so they need no
	// locking.
	finished bool
	aborted  bool
	// unwinding marks that the abortSignal panic is in flight: deferred
	// cleanup that yields during the unwind runs synchronously (Yield
	// becomes a no-op) instead of suspending a coroutine the driver is
	// tearing down.
	unwinding bool
	err       error
}

// Yielder is the coroutine-side handle used to suspend.
type Yielder struct {
	c *Coroutine
}

// runBody executes the coroutine's function, converting an abort unwind
// into ErrAborted and any other panic into an error that preserves the
// goroutine's stack trace — a firmware panic inside an operation must
// stay debuggable (the originating frame is in the error), not collapse
// to a bare value. A Resume of a coroutine that is already running (its
// own handle, or one further up the resume chain) panics in the switch
// and so ends here too, instead of deadlocking.
func (c *Coroutine) runBody() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				err = ErrAborted
			} else {
				err = fmt.Errorf("coro: panic: %v\n%s", r, debug.Stack())
			}
		}
	}()
	if c.aborted {
		// Aborted before the body ever ran: finish without running fn.
		return ErrAborted
	}
	return c.fn(&c.y)
}

// Resume transfers control to the coroutine until its next Yield or its
// completion. It reports whether the coroutine has finished; once it has,
// Err returns its result and further Resumes are no-ops.
func (c *Coroutine) Resume() (finished bool) {
	if c.finished {
		return true
	}
	c.next()
	return c.finished
}

// Finished reports whether the coroutine has run to completion.
func (c *Coroutine) Finished() bool { return c.finished }

// Err returns the coroutine's result. It is meaningful only after
// Finished reports true.
func (c *Coroutine) Err() error { return c.err }

// Abort unwinds a suspended coroutine: its next wake-up panics through
// all its deferred functions and the coroutine finishes with ErrAborted.
// Abort resumes the coroutine until it actually finishes — a deferred
// function that yields during the unwind (cleanup that suspends) is
// driven through its suspensions instead of being abandoned mid-unwind
// with its goroutine parked forever. Aborting a finished coroutine is a
// no-op.
func (c *Coroutine) Abort() {
	if c.finished {
		return
	}
	c.aborted = true
	for !c.finished {
		c.Resume()
	}
}

// Yield suspends the coroutine until the next Resume.
//
// During an abort unwind — after Abort's panic is already in flight —
// Yield returns immediately instead of suspending: a deferred function
// that suspends mid-cleanup runs to completion synchronously rather
// than parking the goroutine against resumes that will never come.
// Coroutine bodies must not recover the abort's panic; swallowing it
// leaves the coroutine in this non-suspending mode.
func (y *Yielder) Yield() {
	c := y.c
	if c.unwinding {
		return
	}
	c.yield(struct{}{})
	if c.aborted {
		c.unwinding = true
		panic(abortSignal{})
	}
}
