package fifo

import (
	"testing"
	"testing/quick"
)

// TestQueueSteadyStateDoesNotGrow is the regression for the reslicing
// pop: q = q[1:] discarded the popped slot's capacity, so a long-lived
// queue reallocated its backing array on nearly every push. The queue
// must reuse its array instead — also when it never drains, as a
// DRAM-slot waiter queue under sustained overload or a backlogged host
// submission queue does not.
func TestQueueSteadyStateDoesNotGrow(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1000; i++ {
		q.Push(i)
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("cycle %d popped %d %v", i, v, ok)
		}
	}
	if c := len(q.buf); c > 8 {
		t.Fatalf("backing array grew to %d entries over steady-state churn", c)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.Push(0)
		q.Pop()
	}); avg > 0.01 {
		t.Fatalf("steady-state push/pop allocates %.2f times per cycle", avg)
	}

	// FIFO order holds across a batch, and a drained queue is empty.
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("FIFO broken at %d: %d %v", i, v, ok)
		}
	}
	if v, ok := q.Pop(); ok || v != 0 || q.Len() != 0 {
		t.Fatalf("empty queue popped %d %v (len %d)", v, ok, q.Len())
	}

	// A queue that always holds three entries keeps FIFO order and its
	// backing array.
	next, want := 0, 0
	for ; next < 3; next++ {
		q.Push(next)
	}
	churn := func() {
		q.Push(next)
		next++
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("FIFO broken at %d: %d %v", want, v, ok)
		}
		want++
	}
	for i := 0; i < 100; i++ {
		churn()
	}
	buf := &q.buf[0]
	if avg := testing.AllocsPerRun(1000, churn); avg != 0 {
		t.Fatalf("a queue that never drains allocates %.2f times per push/pop", avg)
	}
	if &q.buf[0] != buf {
		t.Fatal("a queue that never drains replaced its backing array")
	}
}

// TestQueueMatchesSlice checks Queue against a plain slice over random
// push/pop scripts. Runs of pushes between pops make the ring wrap and
// then grow while wrapped, so the copy-out in grow is exercised at
// every head offset.
func TestQueueMatchesSlice(t *testing.T) {
	f := func(script []uint8) bool {
		var q Queue[int]
		var ref []int
		for i, op := range script {
			if op%3 == 0 {
				v, ok := q.Pop()
				if len(ref) == 0 {
					if ok || v != 0 {
						return false
					}
					continue
				}
				if !ok || v != ref[0] {
					return false
				}
				ref = ref[1:]
			} else {
				q.Push(i)
				ref = append(ref, i)
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		for _, want := range ref {
			if v, ok := q.Pop(); !ok || v != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
