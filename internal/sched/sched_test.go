package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/onfi"
	"repro/internal/sim"
	"repro/internal/txn"
)

type fakeTask struct {
	id   uint64
	chip int
	prio int
}

func (f fakeTask) TaskID() uint64    { return f.id }
func (f fakeTask) TaskChip() int     { return f.chip }
func (f fakeTask) TaskPriority() int { return f.prio }

func drainTasks(q TaskQueue) []uint64 {
	var out []uint64
	for {
		t := q.Pop()
		if t == nil {
			return out
		}
		out = append(out, t.TaskID())
	}
}

func drainTxns(q TxnQueue) []uint64 {
	var out []uint64
	for {
		t := q.Pop()
		if t == nil {
			return out
		}
		out = append(out, t.ID)
	}
}

func TestTaskFIFO(t *testing.T) {
	q := NewTaskFIFO()
	if q.Name() != "fifo" {
		t.Error("name")
	}
	for i := uint64(1); i <= 3; i++ {
		q.Push(fakeTask{id: i})
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	got := drainTasks(q)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("order: %v", got)
	}
	if q.Pop() != nil {
		t.Error("pop from empty should be nil")
	}
}

func TestTaskRoundRobinFairness(t *testing.T) {
	q := NewTaskRoundRobin()
	// Chip 0 floods; chip 1 has one task.
	for i := uint64(1); i <= 4; i++ {
		q.Push(fakeTask{id: i, chip: 0})
	}
	q.Push(fakeTask{id: 100, chip: 1})
	got := drainTasks(q)
	// Chip 1's task must appear second, not last.
	if got[1] != 100 {
		t.Errorf("round robin starved chip 1: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("lost tasks: %v", got)
	}
}

func TestTaskPriorityOrder(t *testing.T) {
	q := NewTaskPriority()
	q.Push(fakeTask{id: 1, prio: 0})
	q.Push(fakeTask{id: 2, prio: 5})
	q.Push(fakeTask{id: 3, prio: 5})
	q.Push(fakeTask{id: 4, prio: 1})
	got := drainTasks(q)
	want := []uint64{2, 3, 4, 1} // prio desc, FIFO within level
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTxnFIFO(t *testing.T) {
	q := NewTxnFIFO()
	for i := uint64(1); i <= 3; i++ {
		q.Push(&txn.Transaction{ID: i})
	}
	got := drainTxns(q)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order: %v", got)
	}
}

func TestTxnRoundRobinInterleavesChips(t *testing.T) {
	q := NewTxnRoundRobin()
	q.Push(&txn.Transaction{ID: 1, Chip: 0})
	q.Push(&txn.Transaction{ID: 2, Chip: 0})
	q.Push(&txn.Transaction{ID: 3, Chip: 1})
	q.Push(&txn.Transaction{ID: 4, Chip: 1})
	got := drainTxns(q)
	want := []uint64{1, 3, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTxnPriority(t *testing.T) {
	q := NewTxnPriority()
	q.Push(&txn.Transaction{ID: 1, Priority: 0})
	q.Push(&txn.Transaction{ID: 2, Priority: 9})
	q.Push(&txn.Transaction{ID: 3, Priority: 9})
	got := drainTxns(q)
	want := []uint64{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTxnShortestFirst(t *testing.T) {
	tm := onfi.DefaultTiming()
	cfg := onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}
	q := NewTxnShortestFirst(tm, cfg)
	long := &txn.Transaction{ID: 1, Instrs: []txn.Instr{txn.TimerWait(sim.Millisecond)}}
	short := &txn.Transaction{ID: 2, Instrs: []txn.Instr{txn.TimerWait(sim.Microsecond)}}
	q.Push(long)
	q.Push(short)
	got := drainTxns(q)
	if got[0] != 2 {
		t.Errorf("shortest-first order: %v", got)
	}
}

// Property: every queue conserves tasks — n pushes yield exactly n pops
// with the same ID multiset.
func TestConservationProperty(t *testing.T) {
	mkQueues := func() []TaskQueue {
		return []TaskQueue{NewTaskFIFO(), NewTaskRoundRobin(), NewTaskPriority()}
	}
	f := func(ids []uint8) bool {
		for _, q := range mkQueues() {
			want := make(map[uint64]int)
			for i, id := range ids {
				q.Push(fakeTask{id: uint64(id), chip: i % 4, prio: i % 3})
				want[uint64(id)]++
			}
			got := make(map[uint64]int)
			for _, id := range drainTasks(q) {
				got[id]++
			}
			if len(got) != len(want) {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: round-robin bounds per-chip waiting — with k chips each
// holding work, no chip waits more than k pops for its next service.
func TestRoundRobinBoundProperty(t *testing.T) {
	const chips = 4
	q := NewTaskRoundRobin()
	id := uint64(0)
	for c := 0; c < chips; c++ {
		for i := 0; i < 10; i++ {
			id++
			q.Push(fakeTask{id: id, chip: c})
		}
	}
	lastSeen := make(map[int]int)
	for pos := 0; ; pos++ {
		task := q.Pop()
		if task == nil {
			break
		}
		chip := task.TaskChip()
		if prev, ok := lastSeen[chip]; ok {
			if pos-prev > chips {
				t.Fatalf("chip %d waited %d pops", chip, pos-prev)
			}
		}
		lastSeen[chip] = pos
	}
}

func TestTxnIssueFirst(t *testing.T) {
	q := NewTxnIssueFirst()
	if q.Name() != "issue-first" {
		t.Error("name")
	}
	transfer := &txn.Transaction{ID: 1, Chip: 0, Instrs: []txn.Instr{
		txn.ChipControl(1),
		txn.DataRead(0, 16384, false),
	}}
	issue := &txn.Transaction{ID: 2, Chip: 1, Instrs: []txn.Instr{
		txn.ChipControl(2),
		txn.CmdAddr([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}),
	}}
	poll := &txn.Transaction{ID: 3, Chip: 0, Instrs: []txn.Instr{
		txn.ChipControl(1),
		txn.CmdAddr([]onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}),
		txn.DataRead(-1, 1, true),
	}}
	writeTx := &txn.Transaction{ID: 4, Chip: 1, Instrs: []txn.Instr{
		txn.ChipControl(2),
		txn.DataWrite(0, 512),
	}}
	q.Push(transfer)
	q.Push(poll)
	q.Push(issue)
	q.Push(writeTx)
	if q.Len() != 4 {
		t.Fatalf("len %d", q.Len())
	}
	got := drainTxns(q)
	// The pure latch burst jumps ahead; polls and transfers keep arrival
	// order within the chip-RR class.
	if got[0] != 2 {
		t.Fatalf("issue txn not first: %v", got)
	}
	if len(got) != 4 {
		t.Fatalf("lost transactions: %v", got)
	}
	if q.Pop() != nil {
		t.Error("pop from empty")
	}
}

func TestTxnIssueFirstTimerIsIssueClass(t *testing.T) {
	q := NewTxnIssueFirst()
	timer := &txn.Transaction{ID: 1, Instrs: []txn.Instr{txn.TimerWait(sim.Microsecond)}}
	data := &txn.Transaction{ID: 2, Instrs: []txn.Instr{txn.ChipControl(1), txn.DataRead(0, 8, false)}}
	q.Push(data)
	q.Push(timer)
	if got := drainTxns(q); got[0] != 1 {
		t.Errorf("timer-only txn should be issue class: %v", got)
	}
}

// TestAllocGateSchedulers holds every policy to zero allocations per
// Push+Pop once warmed: the transaction scheduler runs once per channel
// segment, the task scheduler once per resumed operation.
func TestAllocGateSchedulers(t *testing.T) {
	steps := policyScript()
	tasks := make([]Task, len(steps))
	txns := make([]*txn.Transaction, len(steps))
	for i, s := range steps {
		tasks[i], txns[i] = s.task(), s.txn()
	}
	gate := func(name string, push func(i int), pop func()) {
		t.Helper()
		// Warm-up: hold 16 entries so the churn below never drains a
		// queue, and visit every item's chip.
		for i := 0; i < 16; i++ {
			push(i)
		}
		for i := range steps {
			push(i)
			pop()
		}
		i := 0
		if avg := testing.AllocsPerRun(1000, func() {
			push(i % len(steps))
			pop()
			i++
		}); avg != 0 {
			t.Errorf("%s: %.2f allocations per Push+Pop", name, avg)
		}
	}
	taskQueues := []TaskQueue{NewTaskFIFO(), NewTaskRoundRobin(), NewTaskPriority()}
	for _, q := range taskQueues {
		gate("task "+q.Name(), func(i int) { q.Push(tasks[i]) }, func() { q.Pop() })
	}
	txnQueues := []TxnQueue{NewTxnFIFO(), NewTxnRoundRobin(), NewTxnPriority(), NewTxnIssueFirst(),
		NewTxnShortestFirst(onfi.DefaultTiming(), onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200})}
	for _, q := range txnQueues {
		gate("txn "+q.Name(), func(i int) { q.Push(txns[i]) }, func() { q.Pop() })
	}
}
