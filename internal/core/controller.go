// Package core implements the BABOL channel controller: the assembly of
// the software environment (operations as coroutines, task scheduler,
// transaction scheduler) with the programmable hardware (µFSM executor)
// described in the paper's Figure 5.
//
// The division of labour mirrors the paper exactly:
//
//   - Operations are sequential code (coroutines) that *describe* waveform
//     segments by accumulating µFSM instructions, bundle them into
//     transactions, and yield (Ctx.Submit — the paper's add_transaction +
//     co_await).
//   - The Task Scheduler picks which runnable operation the single
//     firmware core resumes next; every resume, submit, and poll
//     iteration is charged to the CPU model.
//   - The Transaction Scheduler orders queued transactions; the hardware
//     execution unit pops the head whenever the channel is free, with no
//     software on that path — the asynchronous principle that lets a slow
//     CPU coexist with a fast channel as long as descriptions are
//     produced early enough.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bus"
	"repro/internal/coro"
	"repro/internal/cpumodel"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/ufsm"
)

// OpFunc is a flash operation: sequential logic that drives the µFSMs
// through the Ctx. It is the Go analogue of the paper's Algorithms 1–3.
type OpFunc func(*Ctx) error

// Config assembles a controller.
type Config struct {
	Kernel  *sim.Kernel
	Channel *bus.Channel
	// DRAM is the staging buffer; New carves the controller's own
	// scratch region from its top (see scratchSize).
	DRAM *dram.Buffer
	CPU  *cpumodel.CPU
	// TaskQueue defaults to FIFO; TxnQueue defaults to issue-first.
	TaskQueue sched.TaskQueue
	TxnQueue  sched.TxnQueue
	// Tracer receives the controller's event stream (admissions, CPU
	// charges, transaction life cycle, gate openings). nil means tracing
	// is off; every emission site is nil-guarded so the disabled path
	// costs one branch.
	Tracer obs.Tracer
	// CoroPool recycles operation-coroutine goroutines across operations
	// (see coro.Pool). A rig with several channel controllers shares one
	// pool — all controllers run on the same kernel goroutine, so the
	// pool's single-threaded contract holds. nil gives the controller a
	// private pool, which Close then owns and closes.
	CoroPool *coro.Pool
}

// OpRequest is a request to run one operation, as the FTL would issue it.
type OpRequest struct {
	// Func is the operation logic.
	Func OpFunc
	// Chip is the primary target chip on the channel.
	Chip int
	// ExtraChips are additional chips a gang-scheduled operation drives;
	// admission waits until every listed chip is free. Start fails an
	// operation whose Chip or ExtraChips lie outside the channel.
	ExtraChips []int
	// Priority feeds priority-based schedulers; larger is more urgent.
	Priority int
	// Done is called when the operation completes (may be nil).
	Done func(error)
	// Label annotates traces and errors.
	Label string
}

// Stats counts controller activity.
type Stats struct {
	OpsSubmitted uint64
	// OpsCompleted counts every operation that terminated, successfully
	// or not — it includes OpsFailed. Use OpsSucceeded for the
	// error-free count.
	OpsCompleted   uint64
	OpsFailed      uint64
	TxnsExecuted   uint64
	AdmissionWaits uint64
	// Recoveries counts recovery actions recorded via
	// Ctx.Recovery (RESET escalations, chips declared dead).
	Recoveries uint64
}

// OpsSucceeded reports operations that terminated without error.
func (s Stats) OpsSucceeded() uint64 { return s.OpsCompleted - s.OpsFailed }

// Controller is one BABOL channel controller instance.
type Controller struct {
	k    *sim.Kernel
	ch   *bus.Channel
	mem  *dram.Buffer
	cpu  *cpumodel.CPU
	exec *ufsm.Executor

	taskQ sched.TaskQueue
	txnQ  sched.TxnQueue

	nextOpID  uint64
	nextTxnID uint64

	scratch *scratchRing

	// freeOps recycles finished opStates (with their Ctx, transaction
	// box, latch arena, and pre-bound callbacks); together with the
	// coroutine pool (which recycles the coroutine itself) steady-state
	// operation turnover allocates nothing. A
	// state is recycled in finishOp, before the completion callback: by
	// then its coroutine has returned, its last transaction was
	// delivered, its chips are released, and no kernel callback
	// references it.
	freeOps []*opState

	// slots holds each way's operation slots. Each chip runs one
	// operation ("active") and pre-admits one more ("staged"): the staged
	// operation executes its software up to its first transaction, whose
	// description waits on a hardware chip-busy gate. Producing the next
	// segment's description before the opportunity to execute it is the
	// core asynchronous principle (§III: "while a data transfer is
	// ongoing, there is enough time to decide in software on the next
	// task to give a particular LUN"). A gang operation holds the active
	// slot of every chip in its mask. admittedOps counts the operations
	// holding slots.
	slots       [bus.MaxChips]chipSlots
	admittedOps int
	// admitQ holds parked operations until the next finishOp hands them
	// to a re-admission pass; admitSpare is the second buffer of the
	// double-buffered hand-off, so a re-park appends into recycled
	// storage instead of growing a fresh slice.
	admitQ     []*opState
	admitSpare []*opState
	// gangWait lists the gang operations waiting for admission, parked
	// or with their re-admission pass queued, from their first park
	// until they are admitted (see gangReserved).
	gangWait []*opState

	// pool recycles operation-coroutine goroutines: every operation runs
	// on one of its workers. ownPool marks a pool the controller created
	// itself and must close; a shared per-rig pool is closed by the rig.
	pool    *coro.Pool
	ownPool bool

	dispatching bool // a software dispatch chain is in flight
	hwArmed     bool // the hardware unit is waiting for/running a txn
	closed      bool // Close ran; pending kernel callbacks are inert

	// Pre-bound method values for the steady-state callback chain
	// (schedule → switch → submit, arm → execute → complete). Each has
	// at most one pending instance at a time — dispatching serializes
	// the software chain and hwArmed the hardware one — so the pending
	// arguments live in the fields below instead of per-call closures.
	scheduleFn func()
	switchFn   func()
	submitFn   func()
	execHeadFn func()
	txnDoneFn  func()

	dispatchSt   *opState         // task picked by the pending schedule pass
	submitSt     *opState         // owner of the pending submit charge
	submitTx     *txn.Transaction // transaction of the pending submit charge
	completedTx  *txn.Transaction // transaction awaiting its completion callback
	completedRes txn.Result

	tracer obs.Tracer
	stats  Stats
}

// chipSlots is one chip's admission slots.
type chipSlots struct{ active, staged *opState }

// New builds a controller. Channel, DRAM, CPU, and Kernel are required.
func New(cfg Config) (*Controller, error) {
	if cfg.Kernel == nil || cfg.Channel == nil || cfg.DRAM == nil || cfg.CPU == nil {
		return nil, fmt.Errorf("core: Kernel, Channel, DRAM, and CPU are all required")
	}
	if cfg.TaskQueue == nil {
		cfg.TaskQueue = sched.NewTaskFIFO()
	}
	if cfg.TxnQueue == nil {
		cfg.TxnQueue = sched.NewTxnIssueFirst()
	}
	scratch, err := newScratchRing(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	exec := ufsm.NewExecutor(cfg.Channel, cfg.DRAM)
	exec.SetTracer(cfg.Tracer)
	c := &Controller{
		k:       cfg.Kernel,
		ch:      cfg.Channel,
		mem:     cfg.DRAM,
		cpu:     cfg.CPU,
		exec:    exec,
		taskQ:   cfg.TaskQueue,
		txnQ:    cfg.TxnQueue,
		scratch: scratch,
		tracer:  cfg.Tracer,
	}
	if c.pool = cfg.CoroPool; c.pool == nil {
		c.pool = coro.NewPool()
		c.ownPool = true
	}
	c.scheduleFn = c.schedulePass
	c.switchFn = c.switchPass
	c.submitFn = c.submitPass
	c.execHeadFn = c.execHead
	c.txnDoneFn = c.txnDone
	return c, nil
}

// Channel returns the controller's channel.
func (c *Controller) Channel() *bus.Channel { return c.ch }

// CPU returns the firmware CPU model.
func (c *Controller) CPU() *cpumodel.CPU { return c.cpu }

// DRAM returns the staging buffer the Packetizer DMAs against.
func (c *Controller) DRAM() *dram.Buffer { return c.mem }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Pending reports operations admitted or waiting for admission.
func (c *Controller) Pending() int { return c.admittedOps + len(c.admitQ) }

// Start submits an operation request. Admission, scheduling, and
// execution all happen in virtual time; Done fires when the operation
// finishes. Start returns the operation ID. A request naming a chip
// outside the channel fails at once: Done gets the error before Start
// returns, and no coroutine starts. Starting on a closed controller is
// a documented no-op returning 0.
func (c *Controller) Start(req OpRequest) uint64 {
	if c.closed {
		return 0
	}
	c.nextOpID++
	id := c.nextOpID
	c.stats.OpsSubmitted++
	mask, err := c.chipMask(req)
	if err != nil {
		c.stats.OpsCompleted++
		c.stats.OpsFailed++
		if c.tracer != nil {
			c.tracer.Event(obs.Event{
				Time: c.k.Now(), Kind: obs.KindOpFinished,
				OpID: id, Chip: int16(req.Chip), Err: true, Label: req.Label,
			})
		}
		if req.Done != nil {
			req.Done(err)
		}
		return id
	}
	var st *opState
	if n := len(c.freeOps); n > 0 {
		st = c.freeOps[n-1]
		c.freeOps[n-1] = nil
		c.freeOps = c.freeOps[:n-1]
		st.reset(id, req, mask, c.k.Now())
	} else {
		st = &opState{id: id, req: req, mask: mask, ctrl: c, startedAt: c.k.Now()}
		// The callbacks below are bound once per pooled state: they read
		// the state's current fields, so they stay correct across reuse.
		st.admitFn = func() { c.admit(st) }
		st.runFn = func(y *coro.Yielder) error {
			st.ctx.y = y
			return st.req.Func(st.ctx)
		}
		st.ctx = &Ctx{st: st, ctrl: c}
		// One completion callback per state: every Submit reuses the
		// context's transaction box, and with it this Done.
		st.ctx.txnBox.Done = func(res txn.Result) { c.deliver(st, res) }
	}
	// Admission is a firmware action: charge it.
	c.charge(id, c.cpu.Profile().AdmitCycles, "admit", st.admitFn)
	return id
}

// charge is the single funnel for firmware work: it emits a CPU-charge
// event and then serializes fn on the CPU model. Because every
// cpu.Exec in the controller goes through here, the sum of the emitted
// durations reproduces cpumodel.Stats.BusyTime exactly. opID attributes
// the charge to the operation it serves (admit, switch, submit); it is
// 0 for work not on behalf of a specific operation (the schedule pass),
// so per-op sums from the event stream under-count by the scheduling
// share — trace consumers that need exact totals sum all charges.
func (c *Controller) charge(opID uint64, cycles int64, label string, fn func()) {
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindCPUCharge, OpID: opID,
			Cycles: cycles, Dur: c.cpu.CycleTime(cycles), Label: label,
		})
	}
	c.cpu.Exec(cycles, fn)
}

// chipMask checks the request's chips against the channel and returns
// them as one mask.
func (c *Controller) chipMask(req OpRequest) (bus.ChipMask, error) {
	width := c.ch.Chips()
	var m bus.ChipMask
	for i := -1; i < len(req.ExtraChips); i++ {
		chip := req.Chip
		if i >= 0 {
			chip = req.ExtraChips[i]
		}
		if chip < 0 || chip >= width || chip >= bus.MaxChips {
			return 0, fmt.Errorf("core: operation %q names chip %d on a %d-chip channel", req.Label, chip, width)
		}
		m |= bus.Mask(chip)
	}
	return m, nil
}

// gangReserved returns the chips that waiting gang operations older
// than st reserve against it. A gang operation needs all its chips free
// at once, so a younger operation must not take a slot it waits on, not
// even while its re-admission pass is still queued, or a stream of
// later operations (one started by each finishing one) starves it. An
// older operation is never held back, so the oldest waiting gang
// operation waits only for its chips to free.
func (c *Controller) gangReserved(st *opState) bus.ChipMask {
	var m bus.ChipMask
	for _, w := range c.gangWait {
		if w.id < st.id {
			m |= w.mask
		}
	}
	return m
}

// admit places st in a chip slot if one is open, else parks it.
// Single-chip operations may enter the "staged" slot behind a running
// operation; gang operations (ExtraChips) need every chip's active slot
// free and are never staged. Chips an older waiting gang operation
// needs are off limits (see gangReserved).
func (c *Controller) admit(st *opState) {
	if c.closed {
		return
	}
	blocked := c.gangReserved(st)
	if len(st.req.ExtraChips) == 0 {
		if !blocked.Has(st.req.Chip) {
			s := &c.slots[st.req.Chip]
			switch {
			case s.active == nil:
				s.active = st
				c.admitted(st, "active")
				return
			case s.staged == nil:
				s.staged = st
				st.staged = true
				c.admitted(st, "staged")
				return
			}
		}
		c.park(st)
		return
	}
	if st.mask&blocked != 0 {
		c.park(st)
		return
	}
	for m := st.mask; m != 0; m &= m - 1 {
		if s := &c.slots[bits.TrailingZeros16(uint16(m))]; s.active != nil || s.staged != nil {
			c.park(st)
			return
		}
	}
	for m := st.mask; m != 0; m &= m - 1 {
		c.slots[bits.TrailingZeros16(uint16(m))].active = st
	}
	if i := slices.Index(c.gangWait, st); i >= 0 {
		c.gangWait = slices.Delete(c.gangWait, i, i+1)
	}
	c.admitted(st, "gang")
}

// park defers st to the next finishOp re-admission pass.
func (c *Controller) park(st *opState) {
	c.stats.AdmissionWaits++
	c.admitQ = append(c.admitQ, st)
	if len(st.req.ExtraChips) != 0 && !slices.Contains(c.gangWait, st) {
		c.gangWait = append(c.gangWait, st)
	}
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindAdmissionWait,
			OpID: st.id, Chip: int16(st.req.Chip), Label: st.req.Label,
		})
	}
}

// admitted records the slot taken and activates the operation.
func (c *Controller) admitted(st *opState, slot string) {
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindOpAdmitted,
			OpID: st.id, Chip: int16(st.req.Chip), Label: slot,
		})
	}
	c.activate(st)
}

func (c *Controller) activate(st *opState) {
	st.co = c.pool.Get(st.runFn)
	c.admittedOps++
	c.makeRunnable(st, 0)
}

// makeRunnable queues st for the firmware to resume, with extra cycles
// charged on top of the context switch (e.g. poll-result decoding).
func (c *Controller) makeRunnable(st *opState, extraCycles int64) {
	st.wakeExtra = extraCycles
	c.taskQ.Push(st)
	c.pump()
}

// pump drives the software side: one schedule pass + context switch at a
// time, serialized on the CPU model. The dispatching flag guarantees at
// most one schedule/switch pass is pending, so both use the pre-bound
// callbacks with the picked task parked in dispatchSt.
func (c *Controller) pump() {
	if c.closed || c.dispatching || c.taskQ.Len() == 0 {
		return
	}
	c.dispatching = true
	c.charge(0, c.cpu.Profile().ScheduleCycles, "schedule", c.scheduleFn)
}

// schedulePass is the deferred body of pump's schedule charge.
func (c *Controller) schedulePass() {
	if c.closed {
		c.dispatching = false
		return
	}
	t := c.taskQ.Pop()
	if t == nil {
		c.dispatching = false
		return
	}
	st := t.(*opState)
	c.dispatchSt = st
	c.charge(st.id, c.cpu.Profile().SwitchCycles+st.wakeExtra, "switch", c.switchFn)
}

// switchPass is the deferred body of the context-switch charge.
func (c *Controller) switchPass() {
	st := c.dispatchSt
	c.dispatchSt = nil
	if c.closed || st == nil {
		c.dispatching = false
		return
	}
	c.resumeOp(st)
	c.dispatching = false
	c.pump()
}

// resumeOp hands control to the operation coroutine until its next yield
// and then processes the yield reason.
func (c *Controller) resumeOp(st *opState) {
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindOpResumed,
			OpID: st.id, Chip: int16(st.req.Chip),
		})
	}
	finished := st.co.Resume()
	if finished {
		c.finishOp(st, st.co.Err())
		return
	}
	switch st.ctx.pending {
	case pendSubmit:
		tx := st.ctx.pendingTxn
		resubmit := st.ctx.pollResubmit
		st.ctx.pendingTxn = nil
		// Building + enqueueing the transaction costs firmware time;
		// only after that charge does the description reach the
		// hardware-visible queue. A polling *resubmission* — the same
		// status transaction issued again because the last answer was
		// "busy" — additionally pays the loop-body cost (§VI-C calls
		// these "polling resubmissions"; they dominate the coroutine
		// environment's overhead).
		cycles := c.cpu.Profile().SubmitCycles
		label := "submit"
		if resubmit {
			cycles += c.cpu.Profile().PollCycles
			label = "poll-resubmit"
			if c.tracer != nil {
				c.tracer.Event(obs.Event{
					Time: c.k.Now(), Kind: obs.KindPollResubmit,
					OpID: st.id, Chip: int16(st.req.Chip),
				})
			}
		}
		// No other submit charge is pending: the CPU model runs charges
		// in FIFO order, so the last one fired before the schedule and
		// switch charges that led to this resume.
		c.submitSt, c.submitTx = st, tx
		c.charge(st.id, cycles, label, c.submitFn)
	case pendSleep:
		d := st.ctx.sleepFor
		st.ctx.sleepFor = 0
		if st.wakeFn == nil {
			st.wakeFn = func() {
				if c.closed {
					return
				}
				c.makeRunnable(st, 0)
			}
		}
		c.k.After(d, st.wakeFn)
	default:
		// A yield with no request is a cooperative reschedule.
		c.makeRunnable(st, 0)
	}
}

// submitPass is the deferred body of the submit charge: it moves the
// transaction in the pending-submit fields into the hardware-visible
// queue (or holds it behind the chip-busy gate for a staged operation).
func (c *Controller) submitPass() {
	st, tx := c.submitSt, c.submitTx
	c.submitSt, c.submitTx = nil, nil
	if c.closed {
		return
	}
	c.nextTxnID++
	tx.ID = c.nextTxnID
	if st.staged && !st.submittedAny {
		// The chip is still owned by its active operation: the
		// description waits on the hardware chip-busy gate.
		st.heldTxn = tx
		return
	}
	st.submittedAny = true
	c.pushTxn(tx)
	c.armHW()
}

// finishOp releases the operation's chips, promotes staged operations
// (releasing their gated transactions with no software on the path — the
// chip-busy bit is hardware), reports completion, and admits waiting
// operations. Chips are released in request order, Chip first and then
// ExtraChips as listed: that order decides whose held transaction is
// pushed first.
func (c *Controller) finishOp(st *opState, err error) {
	c.admittedOps--
	c.release(st, st.req.Chip)
	for _, chip := range st.req.ExtraChips {
		c.release(st, chip)
	}
	c.stats.OpsCompleted++
	if err != nil {
		c.stats.OpsFailed++
	}
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindOpFinished,
			OpID: st.id, Chip: int16(st.req.Chip), Dur: c.k.Now().Sub(st.startedAt),
			Err: err != nil, Label: st.req.Label,
		})
	}
	// Drop the request's closures (Func/Done) and the finished coroutine,
	// and return the state to the pool before the callback, so an
	// operation the callback starts reuses it.
	done := st.req.Done
	st.req = OpRequest{}
	st.co = nil
	c.freeOps = append(c.freeOps, st)
	if done != nil {
		done(err)
	}
	// Re-run admission for parked operations (in arrival order). Each
	// pass is a firmware action and pays the same AdmitCycles as Start;
	// the CPU model's FIFO keeps the passes in arrival order. A gang
	// operation keeps its reservation while its pass is queued
	// (gangWait), so an operation that done started cannot take its
	// chips first.
	parked := c.admitQ
	c.admitQ = c.admitSpare[:0]
	p := c.cpu.Profile()
	for _, w := range parked {
		c.charge(w.id, p.AdmitCycles, "admit", w.admitFn)
	}
	clear(parked)
	c.admitSpare = parked[:0]
}

// release frees st's slot on chip and promotes the chip's staged
// operation into the active slot.
func (c *Controller) release(st *opState, chip int) {
	s := &c.slots[chip]
	if s.active == st {
		s.active = nil
	}
	if s.staged == st {
		s.staged = nil
	}
	next := s.staged
	if next == nil || s.active != nil {
		return
	}
	s.active, s.staged = next, nil
	next.staged = false
	if held := next.heldTxn; held != nil {
		// Fallback for operations without a Final-tagged last
		// transaction: release at software completion.
		next.heldTxn = nil
		next.submittedAny = true
		c.pushTxn(held)
		c.armHW()
	}
}

// pushTxn moves a transaction into the hardware-visible queue,
// recording the post-push depth.
func (c *Controller) pushTxn(tx *txn.Transaction) {
	c.txnQ.Push(tx)
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindTxnEnqueued,
			OpID: tx.OpID, TxnID: tx.ID, Chip: int16(tx.Chip), Depth: int32(c.txnQ.Len()),
		})
	}
}

// armHW starts the hardware execution unit if it is idle: it waits for
// the channel to free and then plays the transaction scheduler's head.
// No software cost is charged on this path — the pop is the hardware
// "Operation Execution" module reacting to channel vacancy.
func (c *Controller) armHW() {
	if c.closed || c.hwArmed || c.txnQ.Len() == 0 {
		return
	}
	c.hwArmed = true
	if c.ch.Free() {
		c.execHead()
		return
	}
	c.k.At(c.ch.FreeAt(), c.execHeadFn)
}

func (c *Controller) execHead() {
	if c.closed {
		c.hwArmed = false
		return
	}
	tx := c.txnQ.Pop()
	if tx == nil {
		c.hwArmed = false
		return
	}
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindTxnPopped,
			OpID: tx.OpID, TxnID: tx.ID, Chip: int16(tx.Chip), Depth: int32(c.txnQ.Len()),
		})
	}
	start := c.k.Now()
	busyBefore := c.ch.Stats().BusyTime
	res := c.exec.Execute(tx)
	c.stats.TxnsExecuted++
	if c.tracer != nil {
		// The channel's busy-time delta is the exact occupancy this
		// transaction added (robust to error-truncated executions), so
		// summing these events reproduces bus.Stats.BusyTime.
		occ := c.ch.Stats().BusyTime - busyBefore
		c.tracer.Event(obs.Event{
			Time: start.Add(occ), Kind: obs.KindTxnExecuted,
			OpID: tx.OpID, TxnID: tx.ID, Chip: int16(tx.Chip),
			Dur: occ, Start: start, End: start.Add(occ),
			Err: res.Err != nil,
		})
	}
	end := res.End
	if end < c.k.Now() {
		end = c.k.Now()
	}
	// hwArmed stays set until txnDone runs, so at most one completion is
	// pending and its arguments can ride in the completed* fields.
	c.completedTx, c.completedRes = tx, res
	c.k.At(end, c.txnDoneFn)
}

// txnDone is the completion callback of an executed transaction.
func (c *Controller) txnDone() {
	tx, res := c.completedTx, c.completedRes
	c.completedTx, c.completedRes = nil, txn.Result{}
	if c.closed || tx == nil {
		return
	}
	c.hwArmed = false
	if tx.Final {
		// The descriptor's "last" bit opens the chip gate in
		// hardware: a staged successor's held first transaction
		// enters the queue before the next pop.
		c.openGate(tx.Chip)
	}
	c.armHW()
	if tx.Done != nil {
		tx.Done(res)
	}
}

// openGate releases a staged operation's held first transaction for a
// chip whose active operation just executed its final transaction.
func (c *Controller) openGate(chip int) {
	next := c.slots[chip].staged
	if next == nil || next.heldTxn == nil {
		return
	}
	if c.tracer != nil {
		c.tracer.Event(obs.Event{
			Time: c.k.Now(), Kind: obs.KindGateOpened,
			OpID: next.id, Chip: int16(chip),
		})
	}
	held := next.heldTxn
	next.heldTxn = nil
	next.submittedAny = true
	c.pushTxn(held)
}

// deliver is called (via the transaction's Done) when an operation's
// submitted transaction completes: the operation becomes runnable again.
func (c *Controller) deliver(st *opState, res txn.Result) {
	if c.closed {
		return
	}
	st.ctx.result = res
	c.makeRunnable(st, 0)
}

// Close aborts all in-flight operations in way order, releasing their
// coroutine goroutines, and neutralizes every kernel callback still
// scheduled against them (transaction completions, sleep timers, pending
// CPU work): a subsequent kernel drain is a no-op instead of resuming
// aborted coroutines or mutating freed state. A controller-owned
// coroutine pool is closed too, so its parked workers exit and the
// process goroutine count returns to baseline; a shared per-rig pool is
// left for the rig to close after every controller on it has aborted
// its operations. Close is idempotent; the controller must not be used
// afterwards (Start becomes a no-op).
func (c *Controller) Close() {
	if c.closed {
		return
	}
	c.closed = true
	abort := func(st *opState) {
		// A gang operation sits in several slots; it is aborted once.
		if st != nil && st.co != nil {
			st.co.Abort()
			st.co = nil
		}
	}
	for i := range c.slots {
		abort(c.slots[i].active)
		abort(c.slots[i].staged)
	}
	if c.ownPool {
		c.pool.Close()
	}
	c.slots = [bus.MaxChips]chipSlots{}
	c.admittedOps = 0
	c.admitQ = nil
	c.gangWait = nil
	c.dispatching = false
	c.hwArmed = false
}
