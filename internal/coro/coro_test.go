package coro

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// get runs fn on a worker of a fresh pool that is closed when the test
// ends: the semantics below hold on the one path production uses.
func get(tb testing.TB, fn func(*Yielder) error) *Coroutine {
	p := NewPool()
	tb.Cleanup(p.Close)
	return p.Get(fn)
}

func TestRunToCompletion(t *testing.T) {
	var steps []int
	c := get(t, func(y *Yielder) error {
		steps = append(steps, 1)
		y.Yield()
		steps = append(steps, 2)
		y.Yield()
		steps = append(steps, 3)
		return nil
	})
	if c.Finished() {
		t.Fatal("finished before first resume")
	}
	if len(steps) != 0 {
		t.Fatal("body ran before first resume")
	}
	if c.Resume() {
		t.Fatal("finished after first yield")
	}
	if len(steps) != 1 {
		t.Fatalf("steps after first resume: %v", steps)
	}
	c.Resume()
	if done := c.Resume(); !done {
		t.Fatal("not finished after final resume")
	}
	if len(steps) != 3 {
		t.Fatalf("steps: %v", steps)
	}
	if c.Err() != nil {
		t.Fatalf("err: %v", c.Err())
	}
	// Resume after completion is a safe no-op.
	if !c.Resume() {
		t.Fatal("resume after completion should report finished")
	}
}

func TestErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	c := get(t, func(y *Yielder) error {
		y.Yield()
		return sentinel
	})
	c.Resume()
	if !c.Resume() {
		t.Fatal("not finished")
	}
	if c.Err() != sentinel {
		t.Fatalf("err = %v", c.Err())
	}
}

func TestAbortAtYield(t *testing.T) {
	cleaned := false
	c := get(t, func(y *Yielder) error {
		defer func() { cleaned = true }()
		for {
			y.Yield()
		}
	})
	c.Resume()
	c.Abort()
	if !c.Finished() {
		t.Fatal("abort did not finish coroutine")
	}
	if c.Err() != ErrAborted {
		t.Fatalf("err = %v", c.Err())
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on abort")
	}
	c.Abort() // no-op
}

func TestAbortBeforeFirstResume(t *testing.T) {
	ran := false
	c := get(t, func(y *Yielder) error {
		ran = true
		return nil
	})
	c.Abort()
	if !c.Finished() || c.Err() != ErrAborted {
		t.Fatalf("finished=%v err=%v", c.Finished(), c.Err())
	}
	if ran {
		t.Fatal("aborted coroutine body ran")
	}
}

func TestPanicBecomesError(t *testing.T) {
	c := get(t, func(y *Yielder) error {
		panic("kaboom")
	})
	if !c.Resume() {
		t.Fatal("panicking coroutine not finished")
	}
	if c.Err() == nil || c.Err() == ErrAborted {
		t.Fatalf("err = %v", c.Err())
	}
}

// firmwarePanicHelper stands in for the faulty firmware routine: its
// name must survive into the coroutine's error.
func firmwarePanicHelper() { panic("bad row address") }

// A panic inside an operation must keep the goroutine's stack trace —
// the originating function is the whole debugging story, and the
// recover() that converts the panic to an error runs on the coroutine
// goroutine, where the stack is still live.
func TestPanicErrorCapturesStack(t *testing.T) {
	c := get(t, func(y *Yielder) error {
		y.Yield()
		firmwarePanicHelper()
		return nil
	})
	c.Resume()
	if !c.Resume() {
		t.Fatal("panicking coroutine not finished")
	}
	err := c.Err()
	if err == nil {
		t.Fatal("panic swallowed")
	}
	if !strings.Contains(err.Error(), "bad row address") {
		t.Errorf("panic value missing from error: %v", err)
	}
	if !strings.Contains(err.Error(), "firmwarePanicHelper") {
		t.Errorf("originating function missing from error: %v", err)
	}
}

// A deferred function that yields during an abort unwind must be driven
// through its suspensions: Abort keeps resuming until the coroutine
// actually finishes, instead of returning after one resume with the
// goroutine parked forever inside the defer (a goroutine leak, and
// under pooling a leaked pool slot).
func TestAbortDrivesDeferredYields(t *testing.T) {
	cleanupSteps := 0
	c := get(t, func(y *Yielder) error {
		defer func() {
			cleanupSteps++
			y.Yield() // suspending cleanup, e.g. a final SET FEATURES submit
			cleanupSteps++
			y.Yield()
			cleanupSteps++
		}()
		for {
			y.Yield()
		}
	})
	c.Resume()
	c.Abort()
	if !c.Finished() {
		t.Fatal("abort left the coroutine suspended inside its defer")
	}
	if !errors.Is(c.Err(), ErrAborted) {
		t.Fatalf("err = %v", c.Err())
	}
	if cleanupSteps != 3 {
		t.Errorf("cleanup ran %d of 3 steps before finishing", cleanupSteps)
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	var trace []string
	mk := func(name string) *Coroutine {
		return get(t, func(y *Yielder) error {
			for i := 0; i < 3; i++ {
				trace = append(trace, name)
				y.Yield()
			}
			return nil
		})
	}
	a, b := mk("a"), mk("b")
	for !a.Finished() || !b.Finished() {
		a.Resume()
		b.Resume()
	}
	want := "ababababab" // 3 yields each + final resumes, alternating
	got := ""
	for _, s := range trace {
		got += s
	}
	if got != "ababab" {
		t.Fatalf("trace = %q, want ababab (got-want compare: %q)", got, want)
	}
}

func TestNestedCalls(t *testing.T) {
	// Operations nest (READ calls READ STATUS); yields from nested
	// helpers must suspend the whole coroutine.
	inner := func(y *Yielder, log *[]string) {
		*log = append(*log, "inner-before")
		y.Yield()
		*log = append(*log, "inner-after")
	}
	var log []string
	c := get(t, func(y *Yielder) error {
		log = append(log, "outer-before")
		inner(y, &log)
		log = append(log, "outer-after")
		return nil
	})
	c.Resume()
	if len(log) != 2 || log[1] != "inner-before" {
		t.Fatalf("log after first resume: %v", log)
	}
	c.Resume()
	if len(log) != 4 || log[3] != "outer-after" {
		t.Fatalf("log: %v", log)
	}
}

// A Resume of a coroutine that is already running — its own handle, or
// one further up the resume chain — cannot be honoured. It must end that
// coroutine with an error naming the re-entry, not hang the process. The
// scenario runs on its own goroutine under a deadline so a regression
// fails here instead of wedging the test binary.
func TestReentrantResumeFailsLoudly(t *testing.T) {
	done := make(chan [2]*Coroutine, 1)
	go func() {
		var self *Coroutine
		self = get(t, func(y *Yielder) error {
			self.Resume()
			return nil
		})
		self.Resume()

		var outer, inner *Coroutine
		inner = get(t, func(y *Yielder) error {
			outer.Resume() // outer is running: it resumed us
			return nil
		})
		outer = get(t, func(y *Yielder) error {
			inner.Resume()
			return nil
		})
		outer.Resume()
		done <- [2]*Coroutine{self, inner}
	}()
	select {
	case cs := <-done:
		for i, c := range cs {
			if !c.Finished() {
				t.Fatalf("case %d: re-entered coroutine not finished", i)
			}
			if c.Err() == nil || !strings.Contains(c.Err().Error(), "next called again before yield") {
				t.Errorf("case %d: err = %v, want the re-entry named", i, c.Err())
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-entrant Resume hung")
	}
}

// The sharded rig creates a coroutine on one goroutine and drives it from
// another; the switch must carry a coroutine across goroutines as long as
// the hand-over is ordered (here by a channel), under -race too.
func TestResumeFromAnotherGoroutine(t *testing.T) {
	steps := 0
	c := get(t, func(y *Yielder) error {
		for {
			steps++
			y.Yield()
		}
	})
	c.Resume()
	handoff := make(chan *Coroutine)
	result := make(chan error)
	go func() {
		c := <-handoff
		c.Resume()
		c.Resume()
		c.Abort()
		result <- c.Err()
	}()
	handoff <- c
	if err := <-result; !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if !c.Finished() || steps != 3 {
		t.Fatalf("finished=%v steps=%d, want true 3", c.Finished(), steps)
	}
}

// BenchmarkCoroResume quantifies the host cost of one Resume/Yield round
// trip — the per-suspension overhead every simulated operation pays (two
// direct runtime coroutine switches). Run with -benchmem: the round trip
// itself allocates nothing.
func BenchmarkCoroResume(b *testing.B) {
	c := get(b, func(y *Yielder) error {
		for {
			y.Yield()
		}
	})
	c.Resume() // run to the first yield outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Resume()
	}
	b.StopTimer()
	c.Abort()
}

// BenchmarkCoroNew measures getting and completing one coroutine from a
// warmed pool — the per-operation coroutine cost the controller pays. It
// must stay at 0 allocs (TestAllocGateCoroPool is the CI gate), at
// resume-level latency.
func BenchmarkCoroNew(b *testing.B) {
	fn := func(y *Yielder) error { return nil }
	b.Run("pooled", func(b *testing.B) {
		p := NewPool()
		defer p.Close()
		c := p.Get(fn) // spawn the worker outside the timed region
		c.Resume()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := p.Get(fn)
			c.Resume()
		}
	})
}
