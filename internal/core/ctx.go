package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/coro"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
	"repro/internal/txn"
)

// opState tracks one admitted operation. It implements sched.Task.
type opState struct {
	id   uint64
	req  OpRequest
	ctrl *Controller
	co   *coro.Coroutine
	ctx  *Ctx
	// admitFn/wakeFn/runFn are this state's admission, sleep-wake, and
	// coroutine-body callbacks, created at most once per pooled state so
	// repeated admission passes, sleeps, and reuses charge no fresh
	// closures. Each reads the state's current fields, which keeps it
	// valid when the controller recycles the state for a later operation.
	admitFn func()
	wakeFn  func()
	runFn   func(*coro.Yielder) error
	// wakeExtra is charged on top of the context switch at the next
	// resume (e.g. poll-result decode after a completed transaction).
	wakeExtra int64
	// staged marks an operation pre-admitted behind a chip's active
	// operation; its first transaction is withheld in heldTxn until the
	// chip frees. submittedAny records whether any transaction was
	// already released (only the first is ever gated).
	staged       bool
	submittedAny bool
	heldTxn      *txn.Transaction
	// startedAt stamps Start() for latency accounting.
	startedAt sim.Time
	// mask holds every chip the operation needs admitted: Chip and
	// ExtraChips.
	mask bus.ChipMask
}

func (s *opState) TaskID() uint64    { return s.id }
func (s *opState) TaskChip() int     { return s.req.Chip }
func (s *opState) TaskPriority() int { return s.req.Priority }

// reset re-arms a recycled state for a fresh operation. The pre-bound
// callbacks (admitFn, wakeFn, runFn, txnBox.Done) are kept: they read
// the fields assigned here.
func (s *opState) reset(id uint64, req OpRequest, mask bus.ChipMask, now sim.Time) {
	s.id = id
	s.req = req
	s.mask = mask
	s.startedAt = now
	s.co = nil
	s.wakeExtra = 0
	s.staged = false
	s.submittedAny = false
	s.heldTxn = nil
	s.ctx.reset()
}

// pendingKind is the reason an operation yielded.
type pendingKind uint8

const (
	pendNone pendingKind = iota
	pendSubmit
	pendSleep
)

// Ctx is the software environment handed to an operation: the API for
// composing µFSM instructions into transactions (paper §V). All methods
// must be called from inside the operation function.
type Ctx struct {
	st   *opState
	ctrl *Controller
	y    *coro.Yielder

	instrs   []txn.Instr
	selected bool

	// Transaction-building storage, recycled submit-to-submit: txnBox is
	// the one Transaction value every Submit of this operation reuses,
	// latchArena backs the latch bursts the accumulated instructions
	// point into, and capBuf receives captured bytes. All three are safe
	// to recycle because a submitted transaction is fully consumed
	// (executed and delivered) before the operation resumes to build the
	// next one; Result.Captured is likewise only valid until the next
	// Submit.
	txnBox     txn.Transaction
	latchArena []onfi.Latch
	capBuf     []byte

	pending    pendingKind
	pendingTxn *txn.Transaction
	sleepFor   sim.Duration
	result     txn.Result

	// poll-resubmission tracking: a capture transaction submitted right
	// after another capture transaction *with the same leading command*
	// is a polling loop iteration. The command signature distinguishes
	// back-to-back capture phases of different kinds (READ ID followed
	// by READ STATUS is not a resubmission), and an intervening
	// non-capture submit or Sleep breaks the loop.
	lastWasCapture bool
	lastCaptureCmd int
	pollResubmit   bool
}

// reset clears per-operation context state while keeping the recycled
// storage (instruction slice, latch arena, capture buffer) and the
// bound transaction-completion callback.
func (x *Ctx) reset() {
	x.y = nil
	x.instrs = x.instrs[:0]
	x.selected = false
	x.latchArena = x.latchArena[:0]
	x.capBuf = x.capBuf[:0]
	x.pending = pendNone
	x.pendingTxn = nil
	x.sleepFor = 0
	x.result = txn.Result{}
	x.lastWasCapture = false
	x.lastCaptureCmd = 0
	x.pollResubmit = false
}

// OpID returns the operation's controller-assigned ID.
func (x *Ctx) OpID() uint64 { return x.st.id }

// ChipIndex returns the operation's primary chip.
func (x *Ctx) ChipIndex() int { return x.st.req.Chip }

// Now returns the current virtual time.
func (x *Ctx) Now() sim.Time { return x.ctrl.k.Now() }

// Params returns the primary chip's NAND parameters (geometry, timings).
func (x *Ctx) Params() nand.Params {
	return x.ctrl.ch.Chip(x.st.req.Chip).Params()
}

// Geometry returns the primary chip's geometry.
func (x *Ctx) Geometry() onfi.Geometry { return x.Params().Geometry }

// Chip emits a C/E Control instruction selecting the given chips for the
// instructions that follow within the current transaction.
func (x *Ctx) Chip(mask bus.ChipMask) {
	x.instrs = append(x.instrs, txn.ChipControl(mask))
	x.selected = true
}

// selectDefault ensures the primary chip is selected if the operation
// hasn't chosen explicitly.
func (x *Ctx) selectDefault() {
	if !x.selected {
		x.Chip(bus.Mask(x.st.req.Chip))
	}
}

// CmdAddr emits a Command/Address Writer instruction: one latch burst.
// The burst is copied into the context's latch arena, so callers may
// build it in stack storage.
func (x *Ctx) CmdAddr(latches ...onfi.Latch) {
	x.selectDefault()
	base := len(x.latchArena)
	x.latchArena = append(x.latchArena, latches...)
	burst := x.latchArena[base:len(x.latchArena):len(x.latchArena)]
	x.instrs = append(x.instrs, txn.CmdAddr(burst))
}

// Cmd is shorthand for a single command latch.
func (x *Ctx) Cmd(c onfi.Cmd) { x.CmdAddr(onfi.CmdLatch(c)) }

// WriteData emits a Data Writer + Packetizer instruction: n bytes from
// DRAM address addr into the selected chips' page registers.
func (x *Ctx) WriteData(addr, n int) {
	x.selectDefault()
	x.instrs = append(x.instrs, txn.DataWrite(addr, n))
}

// ReadData emits a Data Reader + Packetizer instruction: n bytes from the
// selected chip into DRAM at addr.
func (x *Ctx) ReadData(addr, n int) {
	x.selectDefault()
	x.instrs = append(x.instrs, txn.DataRead(addr, n, false))
}

// ReadCapture emits a Data Reader instruction whose bytes are returned in
// the submit result instead of DMA-ed to DRAM (status/ID/feature reads).
func (x *Ctx) ReadCapture(n int) {
	x.selectDefault()
	x.instrs = append(x.instrs, txn.DataRead(-1, n, true))
}

// Wait emits a Timer instruction holding the channel for d (tADL-style
// inter-segment delays that must keep the bus quiet).
func (x *Ctx) Wait(d sim.Duration) {
	x.instrs = append(x.instrs, txn.TimerWait(d))
}

// Submit bundles the accumulated instructions into a transaction,
// enqueues it for the transaction scheduler, and suspends the operation
// until the hardware has executed it — the paper's
// add_transaction(...) / co_await pair. It returns the execution result.
func (x *Ctx) Submit() txn.Result { return x.submit(false) }

// SubmitFinal is Submit for an operation's statically known last
// transaction (e.g. a READ's data transfer). The hardware opens the
// chip's gate when it completes, so a staged successor starts instantly.
func (x *Ctx) SubmitFinal() txn.Result { return x.submit(true) }

func (x *Ctx) submit(final bool) txn.Result {
	if len(x.instrs) == 0 {
		return txn.Result{Err: fmt.Errorf("core: submit with no instructions")}
	}
	capture := false
	for _, in := range x.instrs {
		if in.Kind == txn.KindDataRead && in.Capture {
			capture = true
			break
		}
	}
	cmd := leadingCmd(x.instrs)
	x.pollResubmit = capture && x.lastWasCapture && cmd >= 0 && cmd == x.lastCaptureCmd
	x.lastWasCapture = capture
	x.lastCaptureCmd = cmd
	// Reuse the context's transaction box: the previous submit's
	// transaction was executed and delivered before the operation
	// resumed, so nothing references it anymore. Done was bound once at
	// activation.
	tx := &x.txnBox
	tx.ID = 0
	tx.OpID = x.st.id
	tx.Chip = x.st.req.Chip
	tx.Priority = x.st.req.Priority
	tx.Final = final
	tx.Instrs = x.instrs
	tx.CapBuf = x.capBuf
	x.selected = false
	x.pending = pendSubmit
	x.pendingTxn = tx
	x.y.Yield()
	x.pending = pendNone
	// The executor may have grown the capture buffer past our backing
	// store; adopt the larger one for the next submit.
	if cap(x.result.Captured) > cap(x.capBuf) {
		x.capBuf = x.result.Captured[:0]
	}
	// The executed transaction no longer references the instruction
	// slice or latch arena; recycle both for the next build.
	x.instrs = x.instrs[:0]
	x.latchArena = x.latchArena[:0]
	return x.result
}

// leadingCmd returns the first command latch value in a transaction's
// instructions, or -1 if it has none — the signature used to tell one
// polling loop's status reads apart from an unrelated capture phase.
func leadingCmd(instrs []txn.Instr) int {
	for i := range instrs {
		if instrs[i].Kind != txn.KindCmdAddr {
			continue
		}
		for _, l := range instrs[i].Latches {
			if l.Kind == onfi.LatchCmd {
				return int(l.Value)
			}
		}
	}
	return -1
}

// Sleep suspends the operation for d of virtual time without occupying
// the channel. Operations use it for coarse waits where polling would be
// wasteful. Sleeping breaks a polling loop: the next capture submit is
// a fresh poll, not a resubmission.
func (x *Ctx) Sleep(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	x.lastWasCapture = false
	x.pending = pendSleep
	x.sleepFor = d
	x.y.Yield()
	x.pending = pendNone
}

// YieldHint cooperatively reschedules the operation, letting other
// runnable operations use the firmware core.
func (x *Ctx) YieldHint() {
	x.pending = pendNone
	x.y.Yield()
}

// Recovery records a recovery action taken by the running operation —
// a RESET escalation after an exhausted poll budget, a chip declared
// dead — bumping the controller's recovery counter and emitting a
// KindRecovery event so the action is visible in the obs stream and
// metrics.
func (x *Ctx) Recovery(label string) {
	x.ctrl.stats.Recoveries++
	if x.ctrl.tracer != nil {
		x.ctrl.tracer.Event(obs.Event{
			Time: x.ctrl.k.Now(), Kind: obs.KindRecovery,
			OpID: x.st.id, Chip: int16(x.st.req.Chip), Label: label,
		})
	}
}
