package sim

import "fmt"

// event is one scheduled callback. The heap holds events by value, so a
// sift compares (at, seq) in place and never chases a pointer.
type event struct {
	at  Time
	seq uint64 // insertion order; breaks ties deterministically
	fn  func()
}

// Kernel is a deterministic discrete-event simulator. Events scheduled
// for the same instant fire in the order they were scheduled. Kernel is
// not safe for concurrent use; the entire simulation runs on one
// goroutine (operation coroutines hand control back and forth
// synchronously). Concurrency in the experiment harness therefore means
// many kernels, one per rig, never one kernel shared.
//
// Accounting semantics: Executed counts events that have fired; Pending
// counts the fn calls still owed if the kernel runs to quiescence with no
// further scheduling. A scheduled event always fires.
//
// The event queue is a binary min-heap of value events ordered by
// (at, seq) — no per-event box, no container/heap interface traffic — so
// the schedule/fire hot path is allocation-free once the heap array has
// grown to the simulation's high-water mark.
type Kernel struct {
	now      Time
	heap     []event
	seq      uint64
	executed uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have fired so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending reports how many events are scheduled and have not fired yet.
func (k *Kernel) Pending() int { return len(k.heap) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, k.now))
	}
	k.seq++
	k.push(event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d after the current time. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now.Add(d), fn)
}

// Step fires the single earliest pending event. It reports false if no
// events remain.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	e := k.pop()
	k.now = e.at
	k.executed++
	e.fn()
	return true
}

// Run fires events until the queue drains.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil fires events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain pending.
func (k *Kernel) RunUntil(deadline Time) {
	for at, ok := k.peek(); ok && at <= deadline; at, ok = k.peek() {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// RunFor runs the simulation for d of virtual time from now.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// peek reports the firing time of the earliest pending event.
func (k *Kernel) peek() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// less orders events by (at, seq): the heap's one comparison.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *Kernel) push(e event) {
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event. It zeroes the vacated tail
// entry so the heap array does not keep the fired closure alive.
func (k *Kernel) pop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	k.heap = h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && less(&h[right], &h[left]) {
			least = right
		}
		if !less(&h[least], &h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
