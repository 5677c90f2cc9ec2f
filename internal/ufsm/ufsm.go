// Package ufsm implements BABOL's Operation Execution hardware: the five
// parameterizable µFSMs and the Packetizer DMA unit, assembled into an
// Executor that plays queued transactions onto a channel.
//
// The µFSMs are "software-configurable waveform segment emitters" (paper
// Fig. 5): each txn.Instr carries the parameters, and the corresponding
// emit method produces the timed bus segment. Intra-segment timing (tCS,
// tWP, tWB, DQS preambles, …) is the µFSMs' responsibility and is folded
// into the bus segment lengths; inter-segment timing (tR, tADL, …) is the
// operation logic's responsibility via the Timer µFSM or status polling.
package ufsm

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/txn"
)

// Executor is the hardware execution unit for one channel.
type Executor struct {
	ch   *bus.Channel
	mem  *dram.Buffer
	stat Stats
	tr   obs.Tracer
	// scratch sinks data reads that target neither DRAM nor the capture
	// buffer; reused across transactions.
	scratch []byte
}

// Stats counts executed work.
type Stats struct {
	Transactions uint64
	Instructions uint64
	DMAInBytes   uint64 // DRAM → LUN
	DMAOutBytes  uint64 // LUN → DRAM
}

// NewExecutor wires the execution unit to a channel and the DRAM buffer
// the Packetizer moves data against.
func NewExecutor(ch *bus.Channel, mem *dram.Buffer) *Executor {
	return &Executor{ch: ch, mem: mem}
}

// Channel returns the attached channel.
func (e *Executor) Channel() *bus.Channel { return e.ch }

// SetTracer attaches an event tracer emitting one KindHWInstr event per
// timed µFSM instruction. nil (the default) disables emission.
func (e *Executor) SetTracer(t obs.Tracer) { e.tr = t }

// Stats returns a snapshot of the counters.
func (e *Executor) Stats() Stats { return e.stat }

// Execute plays every instruction of t onto the channel, back to back,
// starting at the channel's current schedule horizon. It returns the
// transaction's Result; Done is NOT invoked — the caller (the controller)
// owns completion delivery so it can charge software wake-up costs.
//
// Execute must only be called when the scheduler has granted the channel
// (Free() at the current virtual time); the bus appends chained segments
// without re-arbitration.
func (e *Executor) Execute(t *txn.Transaction) txn.Result {
	if err := t.Validate(); err != nil {
		return txn.Result{Err: err}
	}
	var sel bus.ChipMask
	captured := t.CapBuf
	if captured != nil {
		captured = captured[:0]
	}
	var end sim.Time
	for _, in := range t.Instrs {
		e.stat.Instructions++
		var err error
		var label string
		var nbytes int
		var busyBefore sim.Duration
		if e.tr != nil {
			busyBefore = e.ch.Stats().BusyTime
		}
		switch in.Kind {
		case txn.KindChipControl:
			// C/E Control µFSM: pure modifier, no bus time.
			sel = in.Mask
		case txn.KindCmdAddr:
			// Command/Address Writer µFSM.
			label = "cmd-addr"
			end, err = e.ch.Latch(sel, in.Latches, t.OpID)
		case txn.KindDataWrite:
			// Packetizer fetches from DRAM; Data Writer drives DQ/DQS.
			label, nbytes = "data-write", in.N
			var window []byte
			window, err = e.mem.Window(in.Addr, in.N)
			if err == nil {
				end, err = e.ch.DataIn(sel, window, t.OpID)
				e.stat.DMAInBytes += uint64(in.N)
			}
		case txn.KindDataRead:
			// Data Reader µFSM strobes DQS; the Packetizer stores straight
			// into the destination — DRAM (where a clean page read is lent,
			// not copied), the DRAM window a capture also reads, the
			// capture buffer, or the executor's scratch sink — with no
			// intermediate copy.
			label, nbytes = "data-read", in.N
			var dst []byte
			switch {
			case in.Addr >= 0 && !in.Capture:
				end, err = e.ch.DataOutDRAM(sel, e.mem, in.Addr, in.N, t.OpID)
			case in.Addr >= 0:
				dst, err = e.mem.Window(in.Addr, in.N)
			case in.Capture:
				base := len(captured)
				captured = append(captured, make([]byte, in.N)...)
				dst = captured[base:]
			default:
				if cap(e.scratch) < in.N {
					e.scratch = make([]byte, in.N)
				}
				dst = e.scratch[:in.N]
			}
			if err == nil && dst != nil {
				end, err = e.ch.DataOutInto(sel, dst, t.OpID)
			}
			if err == nil {
				e.stat.DMAOutBytes += uint64(in.N)
				if in.Capture && in.Addr >= 0 {
					captured = append(captured, dst...)
				}
			}
		case txn.KindTimerWait:
			// Timer µFSM.
			label = "timer-wait"
			end, err = e.ch.Pause(in.D, t.OpID)
		default:
			err = fmt.Errorf("ufsm: unknown instruction kind %d", in.Kind)
		}
		if e.tr != nil && label != "" {
			e.tr.Event(obs.Event{
				Time: end, Kind: obs.KindHWInstr,
				OpID: t.OpID, TxnID: t.ID, Chip: firstChip(sel),
				Dur: e.ch.Stats().BusyTime - busyBefore, Bytes: int32(nbytes),
				Err: err != nil, Label: label,
			})
		}
		if err != nil {
			return txn.Result{Captured: captured, End: end, Err: err}
		}
	}
	e.stat.Transactions++
	return txn.Result{Captured: captured, End: end}
}

// firstChip returns the lowest selected chip index for event tagging,
// or -1 when nothing is selected.
func firstChip(m bus.ChipMask) int16 {
	for i := 0; i < 16; i++ {
		if m.Has(i) {
			return int16(i)
		}
	}
	return -1
}
