package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// refKernel is the kernel's reference: an unordered list of events that
// a stable sort by (at, seq) puts in firing order before every step.
type refKernel struct {
	now      Time
	seq      uint64
	executed uint64
	queue    []event
}

func (r *refKernel) Now() Time        { return r.now }
func (r *refKernel) Executed() uint64 { return r.executed }
func (r *refKernel) Pending() int     { return len(r.queue) }

func (r *refKernel) At(t Time, fn func()) {
	if t < r.now {
		panic("refKernel: event in the past")
	}
	r.seq++
	r.queue = append(r.queue, event{at: t, seq: r.seq, fn: fn})
}

func (r *refKernel) After(d Duration, fn func()) { r.At(r.now.Add(d), fn) }

// next returns the earliest event, leaving it first in the queue.
func (r *refKernel) next() (event, bool) {
	if len(r.queue) == 0 {
		return event{}, false
	}
	slices.SortStableFunc(r.queue, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	return r.queue[0], true
}

func (r *refKernel) Step() bool {
	e, ok := r.next()
	if !ok {
		return false
	}
	r.queue = r.queue[1:]
	r.now = e.at
	r.executed++
	e.fn()
	return true
}

func (r *refKernel) Run() {
	for r.Step() {
	}
}

func (r *refKernel) RunUntil(deadline Time) {
	for e, ok := r.next(); ok && e.at <= deadline; e, ok = r.next() {
		r.Step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// fuzzKernel is what FuzzKernel drives on both sides: *Kernel and
// *refKernel.
type fuzzKernel interface {
	Now() Time
	Executed() uint64
	Pending() int
	At(Time, func())
	After(Duration, func())
	Step() bool
	Run()
	RunUntil(Time)
}

// fuzzSide is one kernel under the program plus the ids of the events
// it has fired, in order.
type fuzzSide struct {
	k     fuzzKernel
	fired []int
}

// fuzzEvent is one event of the program: delay d, through At when abs
// is set and After otherwise. When it fires it schedules child, if any.
type fuzzEvent struct {
	abs   bool
	d     Duration
	id    int
	child *fuzzEvent
}

func (s *fuzzSide) schedule(e *fuzzEvent) {
	fn := func() {
		s.fired = append(s.fired, e.id)
		if e.child != nil {
			s.schedule(e.child)
		}
	}
	if e.abs {
		s.k.At(s.k.Now().Add(e.d), fn)
	} else {
		s.k.After(e.d, fn)
	}
}

// FuzzKernel holds the heap kernel to refKernel. The input is a program
// of 3-byte ops [op a b] (op = op%4):
//
//	0 At(now + a%8); if b is odd the event, when it fires, schedules
//	  a child (b>>1)%8 later, through At if b&16 is set, else After
//	1 After(a%8), with a child as for 0
//	2 Step
//	3 RunUntil(now + a%16 - 4): a deadline up to 4 ps in the past too
//
// Delays stay small so many events share an instant and FIFO order among
// them is what gets tested. After every op both kernels must have fired
// the same events in the same order and agree on Now, Executed and
// Pending; a final Run drains both.
func FuzzKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		got := &fuzzSide{k: NewKernel()}
		want := &fuzzSide{k: &refKernel{}}
		check := func(what string) {
			t.Helper()
			if !slices.Equal(got.fired, want.fired) {
				t.Fatalf("after %s: fired %v, reference fired %v", what, got.fired, want.fired)
			}
			g, w := got.k, want.k
			if g.Now() != w.Now() || g.Executed() != w.Executed() || g.Pending() != w.Pending() {
				t.Fatalf("after %s: now=%v executed=%d pending=%d, reference now=%v executed=%d pending=%d",
					what, g.Now(), g.Executed(), g.Pending(), w.Now(), w.Executed(), w.Pending())
			}
		}
		ids := 0
		for ; len(prog) >= 3; prog = prog[3:] {
			op, a, b := prog[0]%4, prog[1], prog[2]
			switch op {
			case 0, 1:
				ids++
				e := &fuzzEvent{abs: op == 0, d: Duration(a % 8), id: ids}
				if b&1 != 0 {
					ids++
					e.child = &fuzzEvent{abs: b&16 != 0, d: Duration(b>>1) % 8, id: ids}
				}
				got.schedule(e)
				want.schedule(e)
				check(fmt.Sprintf("schedule %d", e.id))
			case 2:
				if g, w := got.k.Step(), want.k.Step(); g != w {
					t.Fatalf("Step = %v, reference %v", g, w)
				}
				check("Step")
			case 3:
				deadline := got.k.Now().Add(Duration(a%16) - 4)
				got.k.RunUntil(deadline)
				want.k.RunUntil(deadline)
				check(fmt.Sprintf("RunUntil(%v)", deadline))
			}
		}
		got.k.Run()
		want.k.Run()
		check("Run")
	})
}
