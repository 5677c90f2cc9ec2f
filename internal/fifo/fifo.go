// Package fifo provides the first-in first-out queue the schedulers,
// the SSD's waiter lists and the host submission queues share.
package fifo

// Queue is a growable circular queue; its zero value is an empty queue
// ready to use. Pops recycle the backing array instead of reslicing
// away its front, so a steady push/pop stream — also one through a
// queue that never drains — allocates nothing once the array reaches
// the queue's high-water size.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued entries.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Pop removes and returns the oldest entry; ok is false (and v the zero
// value) when the queue is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference so popped items can be collected
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

func (q *Queue[T]) grow() {
	next := make([]T, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}
