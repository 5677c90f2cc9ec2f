package hwctrl

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// state enumerates every state of the three hard-wired operation FSMs.
// One Go constant per Verilog state register value.
type state uint8

const (
	stIdle state = iota

	// READ operation states.
	stReadIssue    // drive 00h + 5 address cycles + 30h
	stReadWaitRB   // wait for R/B# to deassert (tR)
	stReadTransfer // drive 70h status check, 05h/E0h column, stream data

	// PROGRAM operation states.
	stProgIssue  // drive 80h + 5 address cycles, stream data, 10h
	stProgWaitRB // wait for R/B# (tPROG)
	stProgStatus // drive 70h and check FAIL

	// ERASE operation states.
	stEraseIssue  // drive 60h + 3 row cycles + D0h
	stEraseWaitRB // wait for R/B# (tBERS)
	stEraseStatus // drive 70h and check FAIL
)

// isIssue reports whether the state's bus step is a command issue (a
// short latch burst that starts a long LUN-internal operation). The
// arbiter prioritizes these.
func (s state) isIssue() bool {
	switch s {
	case stReadIssue, stProgIssue, stEraseIssue:
		return true
	}
	return false
}

// opFSM is one per-LUN operation engine: the Operation_i block of
// Figure 4. It holds a request FIFO, a state register, and a wants-bus
// flag the arbiter samples.
type opFSM struct {
	ctrl     *Controller
	lun      int
	state    state
	wantsBus bool
	// queue is the request FIFO; queue[head:] are waiting. Pops advance
	// head, and push slides the waiting requests down instead of growing
	// a full array, so the FIFO reuses its storage. It stays hand-written,
	// not a fifo.Queue: Table II counts loadNext as hardware FSM logic.
	queue []Request
	head  int
	cur   Request
	// scratch receives read-out data for requests with no DRAM
	// destination, reused across requests so discarded reads don't
	// allocate.
	scratch []byte

	// completeFn and rbReadyFn are complete and rbReady bound once.
	completeFn func()
	rbReadyFn  func()
}

// push appends a request to the FIFO.
func (f *opFSM) push(req Request) {
	if f.head > 0 && len(f.queue) == cap(f.queue) {
		n := copy(f.queue, f.queue[f.head:])
		clear(f.queue[n:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	f.queue = append(f.queue, req)
}

// loadNext pops the FIFO head into the execution register and enters the
// operation's issue state.
func (f *opFSM) loadNext() {
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
		f.state = stIdle
		return
	}
	f.cur = f.queue[f.head]
	f.queue[f.head] = Request{}
	f.head++
	switch f.cur.Kind {
	case KindRead:
		f.state = stReadIssue
	case KindProgram:
		f.state = stProgIssue
	case KindErase:
		f.state = stEraseIssue
	}
	f.wantsBus = true
}

// fail completes the current request with an error.
func (f *opFSM) fail(err error) {
	done := f.cur.Done
	f.ctrl.stats.OpsCompleted++
	f.ctrl.stats.OpsFailed++
	f.loadNext()
	f.ctrl.arm()
	if done != nil {
		done(err)
	}
}

// complete finishes the current request successfully.
func (f *opFSM) complete() {
	done := f.cur.Done
	f.ctrl.stats.OpsCompleted++
	f.loadNext()
	f.ctrl.arm()
	if done != nil {
		done(nil)
	}
}

// waitRB parks the FSM until the LUN's R/B# pin deasserts, then enters
// next and raises wants-bus.
func (f *opFSM) waitRB(next state) {
	f.state = next
	lun := f.ctrl.ch.Chip(f.lun)
	at := lun.ReadyAt()
	if at < f.ctrl.k.Now() {
		at = f.ctrl.k.Now()
	}
	f.ctrl.k.At(at, f.rbReadyFn)
}

// rbReady is the R/B# pin deasserting: the FSM wants the bus again.
func (f *opFSM) rbReady() {
	f.wantsBus = true
	f.ctrl.arm()
}

// busStep performs the bus work of the FSM's current state. It is called
// by the arbiter with the channel granted; the segments it issues chain
// back to back. It returns the time the channel frees.
func (f *opFSM) busStep() (sim.Time, error) {
	ch := f.ctrl.ch
	sel := bus.Mask(f.lun)
	g := ch.Chip(f.lun).Params().Geometry

	switch f.state {
	case stReadIssue:
		var lbuf [8]onfi.Latch
		latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdRead1))
		latches = g.AppendAddrLatches(latches, onfi.Addr{Row: f.cur.Addr.Row})
		latches = append(latches, onfi.CmdLatch(onfi.CmdRead2))
		end, err := ch.Latch(sel, latches, 0)
		if err != nil {
			return 0, err
		}
		f.waitRB(stReadTransfer)
		return end, nil

	case stReadTransfer:
		// Check the status register first: the FSM hard-wires the FAIL
		// branch.
		status, _, err := ch.Status(f.lun, 0)
		if err != nil {
			return 0, err
		}
		if status&onfi.StatusFail != 0 {
			return 0, fmt.Errorf("hwctrl: READ FAIL on LUN %d at %+v", f.lun, f.cur.Addr.Row)
		}
		cb := onfi.EncodeColAddr(f.cur.Addr.Col)
		lbuf := [4]onfi.Latch{
			onfi.CmdLatch(onfi.CmdChangeReadCol1),
			onfi.AddrLatch(cb[0]), onfi.AddrLatch(cb[1]),
			onfi.CmdLatch(onfi.CmdChangeReadCol2),
		}
		_, err = ch.Latch(sel, lbuf[:], 0)
		if err != nil {
			return 0, err
		}
		// Stream straight into DRAM, where a clean page read is lent
		// rather than copied (or into a reused scratch sink for
		// destination-less reads) — no intermediate per-read buffer.
		var end sim.Time
		if f.cur.DRAMAddr >= 0 {
			end, err = ch.DataOutDRAM(sel, f.ctrl.mem, f.cur.DRAMAddr, f.cur.N, 0)
		} else {
			if cap(f.scratch) < f.cur.N {
				f.scratch = make([]byte, f.cur.N)
			}
			end, err = ch.DataOutInto(sel, f.scratch[:f.cur.N], 0)
		}
		if err != nil {
			return 0, err
		}
		f.ctrl.k.At(end, f.completeFn)
		return end, nil

	case stProgIssue:
		window, err := f.ctrl.mem.Window(f.cur.DRAMAddr, f.cur.N)
		if err != nil {
			return 0, err
		}
		var lbuf [8]onfi.Latch
		latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdProgram1))
		latches = g.AppendAddrLatches(latches, f.cur.Addr)
		if _, err := ch.Latch(sel, latches, 0); err != nil {
			return 0, err
		}
		if _, err := ch.DataIn(sel, window, 0); err != nil {
			return 0, err
		}
		confirm := [1]onfi.Latch{onfi.CmdLatch(onfi.CmdProgram2)}
		end, err := ch.Latch(sel, confirm[:], 0)
		if err != nil {
			return 0, err
		}
		f.waitRB(stProgStatus)
		return end, nil

	case stProgStatus:
		status, end, err := ch.Status(f.lun, 0)
		if err != nil {
			return 0, err
		}
		if status&onfi.StatusFail != 0 {
			return 0, fmt.Errorf("hwctrl: PROGRAM FAIL on LUN %d at %+v", f.lun, f.cur.Addr.Row)
		}
		f.ctrl.k.At(end, f.completeFn)
		return end, nil

	case stEraseIssue:
		var lbuf [5]onfi.Latch
		latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdErase1))
		latches = g.AppendRowLatches(latches, f.cur.Addr.Row)
		latches = append(latches, onfi.CmdLatch(onfi.CmdErase2))
		end, err := ch.Latch(sel, latches, 0)
		if err != nil {
			return 0, err
		}
		f.waitRB(stEraseStatus)
		return end, nil

	case stEraseStatus:
		status, end, err := ch.Status(f.lun, 0)
		if err != nil {
			return 0, err
		}
		if status&onfi.StatusFail != 0 {
			return 0, fmt.Errorf("hwctrl: ERASE FAIL on LUN %d of block %d", f.lun, f.cur.Addr.Row.Block)
		}
		f.ctrl.k.At(end, f.completeFn)
		return end, nil

	default:
		return 0, fmt.Errorf("hwctrl: bus step in unexpected state %d", f.state)
	}
}
