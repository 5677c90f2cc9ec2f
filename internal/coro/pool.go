package coro

import "iter"

// Pool recycles coroutine goroutines across operations. A coroutine
// obtained from Get parks its goroutine on the pool's free list when it
// finishes (normally or via Abort) instead of exiting; the next Get pops
// a parked worker and re-arms it with a fresh function. Steady-state
// coroutine turnover therefore costs one resume-style switch and zero
// allocations, where a fresh worker costs a goroutine and a dozen
// allocations.
//
// Concurrency contract: a Pool belongs to one simulation rig and is
// driven from that rig's single kernel goroutine, exactly like the
// coroutines themselves. The free list needs no lock because a worker
// only touches it while it holds control, inside the driver's Resume.
// Rigs running concurrently (parallel sweeps) must each own a private
// Pool; they share nothing.
type Pool struct {
	free   []*Coroutine
	closed bool

	// spawned counts worker goroutines ever created; reuse keeps it
	// flat. Exposed for tests via Spawned.
	spawned int
}

// NewPool returns an empty pool. Workers are spawned on demand by Get
// and live until Close (or until they finish while the pool is closed).
func NewPool() *Pool { return &Pool{} }

// Get returns a coroutine that will run fn, reusing a parked goroutine
// when one is available. fn does not run until the first Resume. The
// returned handle is owned by the caller until the coroutine finishes;
// at that instant the goroutine re-parks itself and the handle must be
// dropped (a later Get may re-issue it).
//
// Get on a closed pool still works, it just does not recycle: the
// worker runs one body and exits, and Spawned does not count it.
func (p *Pool) Get(fn func(*Yielder) error) *Coroutine {
	if n := len(p.free); n > 0 { // Close empties the free list
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		c.fn = fn
		c.finished = false
		c.aborted = false
		c.unwinding = false
		c.err = nil
		return c
	}
	if !p.closed {
		p.spawned++
	}
	c := &Coroutine{fn: fn}
	c.y.c = c
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		p.work(c)
	})
	return c
}

// work is a worker's whole life: run one body per wake-up, park between
// bodies. The abort unwind (and any body panic) is contained by
// runBody, so an Abort cannot corrupt the loop — the worker parks and is
// reusable afterwards. It ends when the pool is closed: at once if the
// body finishes after Close, or when Close stops it while parked.
func (p *Pool) work(c *Coroutine) {
	for {
		c.err = c.runBody()
		c.finished = true
		if !p.park(c) || !c.yield(struct{}{}) {
			return
		}
	}
}

// park returns c to the free list, reporting whether the worker should
// keep living.
func (p *Pool) park(c *Coroutine) bool {
	if p.closed {
		return false
	}
	c.fn = nil // drop the body's closure; the next Get installs a fresh one
	p.free = append(p.free, c)
	return true
}

// Parked reports how many workers are idle on the free list.
func (p *Pool) Parked() int { return len(p.free) }

// Spawned reports how many worker goroutines the pool ever created; a
// steady-state workload holds it flat at its peak concurrency.
func (p *Pool) Spawned() int { return p.spawned }

// Close stops every parked worker goroutine and marks the pool closed:
// coroutines still in flight finish normally and their workers exit
// instead of re-parking, and later Gets run one body per worker.
// Close is idempotent. Callers must Abort in-flight coroutines first
// (e.g. core.Controller.Close does) if they want the goroutine count
// back to baseline.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, c := range p.free {
		c.stop()
	}
	p.free = nil
}
