package coro

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls, up to a deadline, until the process goroutine
// count drops to at most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine count stuck at %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolReusesGoroutine(t *testing.T) {
	p := NewPool()
	for i := 0; i < 10; i++ {
		ran := false
		c := p.Get(func(y *Yielder) error {
			ran = true
			y.Yield()
			return nil
		})
		if c.Finished() {
			t.Fatal("finished before first resume")
		}
		if c.Resume() {
			t.Fatal("finished at first yield")
		}
		if !c.Resume() {
			t.Fatal("not finished after final resume")
		}
		if !ran || c.Err() != nil {
			t.Fatalf("ran=%v err=%v", ran, c.Err())
		}
		if p.Parked() != 1 {
			t.Fatalf("iteration %d: parked = %d, want 1", i, p.Parked())
		}
	}
	if p.Spawned() != 1 {
		t.Errorf("spawned %d workers for 10 sequential coroutines, want 1", p.Spawned())
	}
	p.Close()
}

func TestPoolSpawnsPerConcurrentCoroutine(t *testing.T) {
	p := NewPool()
	defer p.Close()
	mk := func() *Coroutine {
		return p.Get(func(y *Yielder) error {
			y.Yield()
			return nil
		})
	}
	a, b := mk(), mk()
	a.Resume()
	b.Resume() // both suspended: two live workers
	if p.Spawned() != 2 {
		t.Fatalf("spawned = %d, want 2", p.Spawned())
	}
	a.Resume()
	b.Resume()
	if p.Parked() != 2 {
		t.Fatalf("parked = %d, want 2", p.Parked())
	}
	// Sequential churn reuses the two parked workers, no new spawns.
	for i := 0; i < 5; i++ {
		c := mk()
		c.Resume()
		c.Resume()
	}
	if p.Spawned() != 2 {
		t.Errorf("spawned grew to %d under sequential reuse", p.Spawned())
	}
}

// An aborted pooled coroutine must release its goroutine back to the
// pool in a reusable state: the abortSignal unwind is contained by the
// worker loop, and the next Get gets a clean coroutine.
func TestPoolAbortParksWorker(t *testing.T) {
	p := NewPool()
	defer p.Close()
	cleaned := false
	c := p.Get(func(y *Yielder) error {
		defer func() { cleaned = true }()
		for {
			y.Yield()
		}
	})
	c.Resume()
	c.Abort()
	if !c.Finished() || !errors.Is(c.Err(), ErrAborted) {
		t.Fatalf("finished=%v err=%v", c.Finished(), c.Err())
	}
	if !cleaned {
		t.Error("deferred cleanup did not run on abort")
	}
	if p.Parked() != 1 {
		t.Fatalf("parked = %d after abort, want 1", p.Parked())
	}
	// Double-Abort and Abort-after-finish are no-ops.
	c.Abort()
	c.Abort()
	if p.Parked() != 1 {
		t.Fatalf("parked = %d after double abort, want 1", p.Parked())
	}
	// The recycled worker runs a fresh body with clean state.
	c2 := p.Get(func(y *Yielder) error { return nil })
	if c2.Err() != nil || c2.Finished() {
		t.Fatal("recycled coroutine carries stale state")
	}
	if !c2.Resume() {
		t.Fatal("recycled coroutine did not finish")
	}
	if c2.Err() != nil {
		t.Fatalf("recycled coroutine err = %v", c2.Err())
	}
	if p.Spawned() != 1 {
		t.Errorf("abort leaked the worker: spawned = %d", p.Spawned())
	}
}

func TestPoolAbortBeforeFirstResume(t *testing.T) {
	p := NewPool()
	defer p.Close()
	ran := false
	c := p.Get(func(y *Yielder) error {
		ran = true
		return nil
	})
	c.Abort()
	if !c.Finished() || !errors.Is(c.Err(), ErrAborted) {
		t.Fatalf("finished=%v err=%v", c.Finished(), c.Err())
	}
	if ran {
		t.Fatal("aborted coroutine body ran")
	}
	if p.Parked() != 1 {
		t.Fatalf("parked = %d, want 1", p.Parked())
	}
}

// A panic in a pooled coroutine body surfaces as an error (with the
// stack) and leaves the worker reusable.
func TestPoolPanicKeepsWorkerReusable(t *testing.T) {
	p := NewPool()
	defer p.Close()
	c := p.Get(func(y *Yielder) error {
		poolPanicHelper()
		return nil
	})
	if !c.Resume() {
		t.Fatal("panicking coroutine not finished")
	}
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "poolPanicHelper") {
		t.Fatalf("panic error lost the stack: %v", c.Err())
	}
	if p.Parked() != 1 {
		t.Fatalf("parked = %d after panic, want 1", p.Parked())
	}
	c2 := p.Get(func(y *Yielder) error { return nil })
	c2.Resume()
	if c2.Err() != nil {
		t.Fatalf("worker unusable after panic: %v", c2.Err())
	}
	if p.Spawned() != 1 {
		t.Errorf("panic leaked the worker: spawned = %d", p.Spawned())
	}
}

func poolPanicHelper() { panic("pooled kaboom") }

func TestPoolCloseStopsParkedWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool()
	var cs []*Coroutine
	for i := 0; i < 8; i++ {
		cs = append(cs, p.Get(func(y *Yielder) error {
			y.Yield()
			return nil
		}))
	}
	for _, c := range cs {
		c.Resume() // all suspended: 8 live workers
	}
	for _, c := range cs {
		c.Resume() // all finished and parked
	}
	if p.Parked() != 8 {
		t.Fatalf("parked = %d, want 8", p.Parked())
	}
	p.Close()
	p.Close() // idempotent
	waitGoroutines(t, base)
}

// A coroutine still in flight when the pool closes finishes normally
// and its worker exits instead of re-parking.
func TestPoolCloseWithInFlightCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool()
	c := p.Get(func(y *Yielder) error {
		y.Yield()
		return nil
	})
	c.Resume() // suspended, not parked
	p.Close()
	if !c.Resume() {
		t.Fatal("in-flight coroutine did not finish after Close")
	}
	if p.Parked() != 0 {
		t.Fatalf("parked = %d on a closed pool", p.Parked())
	}
	waitGoroutines(t, base)
}

// Get on a closed pool still runs each body, just without recycling: the
// worker runs one body and its goroutine exits. The body's error (or
// ErrAborted for an Abort before the first Resume) is the coroutine's
// result, nothing parks, and no pooled worker is counted.
func TestPoolGetAfterCloseRunsOneShot(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool()
	warm := p.Get(func(y *Yielder) error { return nil })
	warm.Resume()
	p.Close()
	waitGoroutines(t, base)
	spawned := p.Spawned()

	sentinel := errors.New("boom")
	ran := 0
	c := p.Get(func(y *Yielder) error {
		ran++
		y.Yield()
		return sentinel
	})
	if c.Resume() {
		t.Fatal("one-shot coroutine finished at its first yield")
	}
	if !c.Resume() {
		t.Fatal("one-shot coroutine did not finish")
	}
	if ran != 1 || c.Err() != sentinel {
		t.Fatalf("ran=%d err=%v, want 1 %v", ran, c.Err(), sentinel)
	}

	aborted := p.Get(func(y *Yielder) error {
		ran++
		return nil
	})
	aborted.Abort()
	if !aborted.Finished() || !errors.Is(aborted.Err(), ErrAborted) {
		t.Fatalf("finished=%v err=%v, want true ErrAborted", aborted.Finished(), aborted.Err())
	}
	if ran != 1 {
		t.Fatal("aborted one-shot coroutine body ran")
	}

	if p.Parked() != 0 {
		t.Fatalf("closed pool parked %d workers", p.Parked())
	}
	if p.Spawned() != spawned {
		t.Fatalf("spawned = %d after Gets on a closed pool, want %d", p.Spawned(), spawned)
	}
	waitGoroutines(t, base)
}

// TestPoolStressConcurrentRigs is the -race workout: many "rigs" (one
// goroutine each, as in parallel sweeps), each owning a private pool and
// churning coroutines through finish, abort, panic, and nested-yield
// paths. Pools share nothing; the race detector confirms the ordering
// claims in the Pool contract.
func TestPoolStressConcurrentRigs(t *testing.T) {
	const rigs = 8
	const opsPerRig = 300
	done := make(chan error, rigs)
	for r := 0; r < rigs; r++ {
		r := r
		go func() {
			p := NewPool()
			defer p.Close()
			for i := 0; i < opsPerRig; i++ {
				switch i % 4 {
				case 0: // run to completion across yields
					c := p.Get(func(y *Yielder) error {
						y.Yield()
						y.Yield()
						return nil
					})
					for !c.Resume() {
					}
					if c.Err() != nil {
						done <- fmt.Errorf("rig %d op %d: %v", r, i, c.Err())
						return
					}
				case 1: // abort mid-flight
					c := p.Get(func(y *Yielder) error {
						for {
							y.Yield()
						}
					})
					c.Resume()
					c.Abort()
					if !errors.Is(c.Err(), ErrAborted) {
						done <- fmt.Errorf("rig %d op %d: err=%v", r, i, c.Err())
						return
					}
				case 2: // panic
					c := p.Get(func(y *Yielder) error { panic("stress") })
					c.Resume()
					if c.Err() == nil {
						done <- fmt.Errorf("rig %d op %d: panic lost", r, i)
						return
					}
				case 3: // error return
					sentinel := errors.New("boom")
					c := p.Get(func(y *Yielder) error { return sentinel })
					c.Resume()
					if c.Err() != sentinel {
						done <- fmt.Errorf("rig %d op %d: err=%v", r, i, c.Err())
						return
					}
				}
			}
			if p.Spawned() > 1 {
				done <- fmt.Errorf("rig %d: %d workers spawned for sequential ops", r, p.Spawned())
				return
			}
			done <- nil
		}()
	}
	for r := 0; r < rigs; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocGateCoroPool is the allocation-regression gate for pooled
// coroutine turnover: a full Get → run → finish cycle on a warmed pool
// must allocate nothing (the runtime coroutine, handle, and Yielder are
// all recycled).
func TestAllocGateCoroPool(t *testing.T) {
	p := NewPool()
	defer p.Close()
	fn := func(y *Yielder) error { return nil }
	// Warm: spawn the one worker outside the measured region.
	c := p.Get(fn)
	c.Resume()
	allocs := testing.AllocsPerRun(200, func() {
		c := p.Get(fn)
		c.Resume()
	})
	if allocs != 0 {
		t.Errorf("pooled coroutine cycle allocates %.1f objects, want 0", allocs)
	}
}
