package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/onfi"
	"repro/internal/txn"
)

// policyStep is one step of the order script: a push of the item with
// the given fields, or (id == 0) a pop.
type policyStep struct {
	id         uint64
	chip, prio int
	kind, size int
}

// policyScript is the one seeded script every policy runs: 64 pushes
// interleaved with pops (some on an empty queue), then a drain. Items
// spread over chips 0–7 and priorities 0–3, and their transactions mix
// issue-class latch bursts of 1–8 cycles with data-class reads, writes
// and status polls of several sizes, so every policy's key ties and
// differs.
func policyScript() []policyStep {
	rng := rand.New(rand.NewSource(55))
	var steps []policyStep
	for id := uint64(1); id <= 64; {
		if rng.Intn(5) < 2 {
			steps = append(steps, policyStep{})
			continue
		}
		steps = append(steps, policyStep{id: id, chip: rng.Intn(8), prio: rng.Intn(4), kind: rng.Intn(4), size: rng.Intn(8)})
		id++
	}
	return steps
}

func (s policyStep) task() Task { return fakeTask{id: s.id, chip: s.chip, prio: s.prio} }

func (s policyStep) txn() *txn.Transaction {
	t := &txn.Transaction{ID: s.id, Chip: s.chip, Priority: s.prio}
	sel := txn.ChipControl(bus.ChipMask(1) << s.chip)
	switch s.kind {
	case 0: // issue class: a bare latch burst
		ls := make([]onfi.Latch, 1+s.size)
		for i := range ls {
			ls[i] = onfi.AddrLatch(byte(i))
		}
		t.Instrs = []txn.Instr{sel, txn.CmdAddr(ls)}
	case 1: // data read
		t.Instrs = []txn.Instr{sel, txn.DataRead(0, 512<<(s.size%4), false)}
	case 2: // data write
		t.Instrs = []txn.Instr{sel, txn.DataWrite(0, 512<<(s.size%4))}
	default: // status poll
		t.Instrs = []txn.Instr{sel, txn.CmdAddr([]onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}), txn.DataRead(-1, 1, true)}
	}
	return t
}

// runPolicy drives one queue through the script, checks Len after every
// step, and returns the popped IDs (0 for a pop of an empty queue).
func runPolicy[T comparable](t *testing.T, name string, q interface {
	Push(T)
	Pop() T
	Len() int
}, mk func(policyStep) T, id func(T) uint64) []uint64 {
	t.Helper()
	var zero T
	var got []uint64
	pop := func() {
		v := q.Pop()
		if v == zero {
			got = append(got, 0)
			return
		}
		got = append(got, id(v))
	}
	n := 0
	for _, s := range policyScript() {
		if s.id == 0 {
			pop()
			if n > 0 {
				n--
			}
		} else {
			q.Push(mk(s))
			n++
		}
		if q.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", name, q.Len(), n)
		}
	}
	for ; n > 0; n-- {
		pop()
		if q.Len() != n-1 {
			t.Fatalf("%s: Len = %d while draining, want %d", name, q.Len(), n-1)
		}
	}
	pop()
	return got
}

// TestPolicyOrder pins the complete pop order of every scheduling
// policy over one interleaved push/pop script. The orders were recorded
// from the per-type implementations before the policies were made
// generic; a change here is a change of scheduling behaviour.
func TestPolicyOrder(t *testing.T) {
	tm := onfi.DefaultTiming()
	cfg := onfi.BusConfig{Mode: onfi.NVDDR2, RateMT: 200}
	taskID := func(x Task) uint64 { return x.TaskID() }
	txnID := func(x *txn.Transaction) uint64 { return x.ID }
	got := map[string][]uint64{
		"NewTaskFIFO":         runPolicy[Task](t, "NewTaskFIFO", NewTaskFIFO(), policyStep.task, taskID),
		"NewTaskRoundRobin":   runPolicy[Task](t, "NewTaskRoundRobin", NewTaskRoundRobin(), policyStep.task, taskID),
		"NewTaskPriority":     runPolicy[Task](t, "NewTaskPriority", NewTaskPriority(), policyStep.task, taskID),
		"NewTxnFIFO":          runPolicy[*txn.Transaction](t, "NewTxnFIFO", NewTxnFIFO(), policyStep.txn, txnID),
		"NewTxnRoundRobin":    runPolicy[*txn.Transaction](t, "NewTxnRoundRobin", NewTxnRoundRobin(), policyStep.txn, txnID),
		"NewTxnPriority":      runPolicy[*txn.Transaction](t, "NewTxnPriority", NewTxnPriority(), policyStep.txn, txnID),
		"NewTxnIssueFirst":    runPolicy[*txn.Transaction](t, "NewTxnIssueFirst", NewTxnIssueFirst(), policyStep.txn, txnID),
		"NewTxnShortestFirst": runPolicy[*txn.Transaction](t, "NewTxnShortestFirst", NewTxnShortestFirst(tm, cfg), policyStep.txn, txnID),
	}
	want := map[string]string{
		"NewTaskFIFO":         "[1 0 0 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64 0]",
		"NewTaskRoundRobin":   "[1 0 0 2 3 6 8 9 4 10 12 5 11 7 14 15 13 16 18 19 20 17 23 25 22 26 21 28 39 40 27 38 24 33 31 29 45 30 42 35 34 32 47 51 50 41 37 36 60 58 64 62 46 44 43 59 63 48 49 54 52 53 55 56 57 61 0]",
		"NewTaskPriority":     "[1 0 0 2 5 7 6 8 10 11 13 3 4 9 14 15 17 12 16 19 20 24 25 27 36 28 30 33 23 42 26 31 43 44 45 48 52 49 54 58 50 59 34 35 60 39 64 46 47 56 61 63 18 21 22 29 32 37 38 40 41 51 53 55 57 62 0]",
		"NewTxnFIFO":          "[1 0 0 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64 0]",
		"NewTxnRoundRobin":    "[1 0 0 2 3 6 8 9 4 10 12 5 11 7 14 15 13 16 18 19 20 17 23 25 22 26 21 28 39 40 27 38 24 33 31 29 45 30 42 35 34 32 47 51 50 41 37 36 60 58 64 62 46 44 43 59 63 48 49 54 52 53 55 56 57 61 0]",
		"NewTxnPriority":      "[1 0 0 2 5 7 6 8 10 11 13 3 4 9 14 15 17 12 16 19 20 24 25 27 36 28 30 33 23 42 26 31 43 44 45 48 52 49 54 58 50 59 34 35 60 39 64 46 47 56 61 63 18 21 22 29 32 37 38 40 41 51 53 55 57 62 0]",
		"NewTxnIssueFirst":    "[1 0 0 2 3 4 9 5 6 8 10 12 7 11 14 15 13 16 18 19 20 17 23 25 22 37 38 26 21 42 28 39 40 45 27 24 33 31 54 56 57 58 29 47 50 30 64 35 34 32 60 59 62 51 41 44 36 63 46 49 43 48 53 52 61 55 0]",
		"NewTxnShortestFirst": "[1 0 0 2 4 3 6 7 8 11 12 5 10 13 14 15 17 16 18 20 21 24 25 31 33 37 38 35 39 42 22 30 43 45 46 48 50 52 54 58 56 57 40 32 60 63 64 41 53 44 47 61 19 23 34 51 28 29 62 36 49 55 59 26 9 27 0]",
	}
	for name, ids := range got {
		if s := fmt.Sprint(ids); s != want[name] {
			t.Errorf("%s pop order:\n got %s\nwant %s", name, s, want[name])
		}
	}
}
