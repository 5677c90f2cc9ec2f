// Package sched provides the pluggable scheduling policies of BABOL's
// Operation Scheduling module: Task schedulers decide which admitted
// operation the firmware resumes next, and Transaction schedulers decide
// the order in which queued transactions take the channel.
//
// BABOL deliberately does not mandate an objective for either scheduler
// (paper §V); the controller accepts any implementation of the two queue
// interfaces. This package ships the policies used in the evaluation —
// FIFO, chip-fair round-robin, priority — plus a shortest-segment-first
// transaction policy for the ablation benches. Each policy is written
// once, generic over what it orders; the task and transaction
// constructors differ only in the key they hand it.
package sched

import (
	"repro/internal/fifo"
	"repro/internal/onfi"
	"repro/internal/txn"
)

// Task is what a task scheduler orders: a runnable operation.
type Task interface {
	// TaskID is a unique, monotonically assigned operation ID.
	TaskID() uint64
	// TaskChip is the operation's primary chip, used by fairness policies.
	TaskChip() int
	// TaskPriority is interpreted by priority policies; larger runs first.
	TaskPriority() int
}

// Queue orders what one scheduler serves.
type Queue[T any] interface {
	Name() string
	Push(T)
	Pop() T // the zero value (nil) when empty
	Len() int
}

// TaskQueue orders runnable operations.
type TaskQueue = Queue[Task]

// TxnQueue orders executable transactions.
type TxnQueue = Queue[*txn.Transaction]

// ---------------------------------------------------------------- FIFO --

type fifoQueue[T any] struct{ q fifo.Queue[T] }

// NewTaskFIFO returns a first-come-first-served task scheduler.
func NewTaskFIFO() TaskQueue { return &fifoQueue[Task]{} }

// NewTxnFIFO returns a first-come-first-served transaction scheduler.
func NewTxnFIFO() TxnQueue { return &fifoQueue[*txn.Transaction]{} }

func (f *fifoQueue[T]) Name() string { return "fifo" }
func (f *fifoQueue[T]) Push(t T)     { f.q.Push(t) }
func (f *fifoQueue[T]) Len() int     { return f.q.Len() }
func (f *fifoQueue[T]) Pop() T       { t, _ := f.q.Pop(); return t }

// --------------------------------------------------------- round robin --

// roundRobin services per-chip FIFOs in rotating order, so no chip's
// work can starve the others even under asymmetric load.
type roundRobin[T any] struct {
	chip    func(T) int
	perChip map[int]*fifo.Queue[T]
	order   []int
	next    int
	n       int
}

func newRoundRobin[T any](chip func(T) int) *roundRobin[T] {
	return &roundRobin[T]{chip: chip, perChip: make(map[int]*fifo.Queue[T])}
}

// NewTaskRoundRobin returns a chip-fair round-robin task scheduler.
func NewTaskRoundRobin() TaskQueue { return newRoundRobin(Task.TaskChip) }

// NewTxnRoundRobin returns a chip-fair round-robin transaction scheduler
// — the "simple version" the paper describes.
func NewTxnRoundRobin() TxnQueue {
	return newRoundRobin(func(t *txn.Transaction) int { return t.Chip })
}

func (r *roundRobin[T]) Name() string { return "round-robin" }
func (r *roundRobin[T]) Len() int     { return r.n }

func (r *roundRobin[T]) Push(t T) {
	chip := r.chip(t)
	q, ok := r.perChip[chip]
	if !ok {
		q = &fifo.Queue[T]{}
		r.perChip[chip] = q
		r.order = append(r.order, chip)
	}
	q.Push(t)
	r.n++
}

func (r *roundRobin[T]) Pop() T {
	for i := 0; r.n > 0 && i < len(r.order); i++ {
		chip := r.order[(r.next+i)%len(r.order)]
		if t, ok := r.perChip[chip].Pop(); ok {
			r.next = (r.next + i + 1) % len(r.order)
			r.n--
			return t
		}
	}
	var zero T
	return zero
}

// -------------------------------------------------------------- ranked --

// ranked is a binary min-heap on (rank, push order): the lowest rank
// pops first, and equal ranks pop in arrival order. The order is total,
// so it does not depend on how the heap breaks ties.
type ranked[T any] struct {
	name string
	rank func(T) int64 // computed once, at push
	h    []rankedItem[T]
	seq  uint64
}

type rankedItem[T any] struct {
	v    T
	rank int64
	seq  uint64
}

// NewTaskPriority returns a priority task scheduler: higher TaskPriority
// first, FIFO within a priority level. The paper's example use is giving
// latency-sensitive workloads (database logging) more attention.
func NewTaskPriority() TaskQueue {
	return &ranked[Task]{name: "priority", rank: func(t Task) int64 { return -int64(t.TaskPriority()) }}
}

// NewTxnPriority returns a priority transaction scheduler: transactions
// with larger Priority take the channel first.
func NewTxnPriority() TxnQueue {
	return &ranked[*txn.Transaction]{name: "priority", rank: func(t *txn.Transaction) int64 { return -int64(t.Priority) }}
}

// NewTxnShortestFirst returns a transaction scheduler that runs the
// shortest estimated segment first — it keeps short status polls flowing
// between long data transfers. Used by the ablation benches.
func NewTxnShortestFirst(tm onfi.Timing, cfg onfi.BusConfig) TxnQueue {
	return &ranked[*txn.Transaction]{name: "shortest-first", rank: func(t *txn.Transaction) int64 {
		return int64(t.EstimateDuration(tm, cfg))
	}}
}

func (p *ranked[T]) Name() string { return p.name }
func (p *ranked[T]) Len() int     { return len(p.h) }

func (p *ranked[T]) less(i, j int) bool {
	a, b := &p.h[i], &p.h[j]
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (p *ranked[T]) Push(t T) {
	p.seq++
	p.h = append(p.h, rankedItem[T]{v: t, rank: p.rank(t), seq: p.seq})
	for i := len(p.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !p.less(i, parent) {
			break
		}
		p.h[i], p.h[parent] = p.h[parent], p.h[i]
		i = parent
	}
}

func (p *ranked[T]) Pop() T {
	if len(p.h) == 0 {
		var zero T
		return zero
	}
	top := p.h[0].v
	last := len(p.h) - 1
	p.h[0] = p.h[last]
	p.h[last] = rankedItem[T]{}
	p.h = p.h[:last]
	for i := 0; ; {
		small := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(p.h) && p.less(c, small) {
				small = c
			}
		}
		if small == i {
			return top
		}
		p.h[i], p.h[small] = p.h[small], p.h[i]
		i = small
	}
}

// --------------------------------------------------------- issue first --

// isIssueTxn classifies a transaction for the issue-first policy: no
// data phase makes it an issue transaction.
func isIssueTxn(t *txn.Transaction) bool {
	for _, in := range t.Instrs {
		switch in.Kind {
		case txn.KindDataRead, txn.KindDataWrite:
			return false
		}
	}
	return true
}

type txnIssueFirst struct {
	issues fifo.Queue[*txn.Transaction]
	rest   TxnQueue
}

// NewTxnIssueFirst returns the transaction scheduler BABOL uses by
// default: command-issue transactions (latch bursts with no data phase)
// jump ahead of everything else, because they last well under a
// microsecond and start long LUN-internal work — the "prioritize
// commands" policy the paper sketches in §V. Data transfers and status
// polls share the channel round-robin per chip; in particular, polls do
// NOT jump the queue, which is what makes them cheap on a busy channel
// (§VI-C: a queued poll usually executes after tR already expired).
func NewTxnIssueFirst() TxnQueue {
	return &txnIssueFirst{rest: NewTxnRoundRobin()}
}

func (q *txnIssueFirst) Name() string { return "issue-first" }
func (q *txnIssueFirst) Len() int     { return q.issues.Len() + q.rest.Len() }

func (q *txnIssueFirst) Push(t *txn.Transaction) {
	if isIssueTxn(t) {
		q.issues.Push(t)
		return
	}
	q.rest.Push(t)
}

func (q *txnIssueFirst) Pop() *txn.Transaction {
	if t, ok := q.issues.Pop(); ok {
		return t
	}
	return q.rest.Pop()
}
