package wave

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// Violation is one timing-rule breach found in a trace.
type Violation struct {
	Index int // event index in the trace
	Rule  string
	Want  sim.Duration
	Got   sim.Duration
}

func (v Violation) String() string {
	return fmt.Sprintf("event %d: %s: need ≥%v, got %v", v.Index, v.Rule, v.Want, v.Got)
}

// Checker validates a recorded trace against ONFI timing rules. It is the
// programmatic equivalent of eyeballing the logic analyzer: it confirms
// that the µFSMs construct legal waveforms regardless of how the software
// layer composed them.
type Checker struct {
	Timing onfi.Timing
	Bus    onfi.BusConfig
}

// NewChecker builds a checker for the given electrical configuration.
func NewChecker(t onfi.Timing, bus onfi.BusConfig) *Checker {
	return &Checker{Timing: t, Bus: bus}
}

// Check validates the pin-level events of a trace, skipping every other
// kind, and returns all violations found.
//
// Rules enforced:
//  1. channel exclusivity — channel segments never overlap in time;
//  2. latch-burst length — a CMD/ADDR segment must last at least
//     tCS + n·(tWP+tWH) + tCH for its n latch cycles (Bytes);
//  3. data-burst length — a data segment must last at least
//     tDQSS + n·transferPeriod + tRPST for its n bytes;
//  4. command-to-data gap — a DATA-OUT segment must start at least tWHR
//     after the preceding CMD/ADDR segment to the same chip ends;
//  5. write-busy gap — after a latch burst ending in a confirm command
//     (Depth 1: READ.2, PROGRAM.2, ERASE.2, the cache confirms), nothing
//     may address the same chip for tWB.
func (c *Checker) Check(events []obs.Event) []Violation {
	var out []Violation
	var chanSegs []obs.Event
	var idx []int
	for i, e := range events {
		if onChannel(e.Kind) {
			chanSegs = append(chanSegs, e)
			idx = append(idx, i)
		}
	}

	for i := 1; i < len(chanSegs); i++ {
		if chanSegs[i].Start < chanSegs[i-1].End {
			out = append(out, Violation{
				Index: idx[i], Rule: "channel exclusivity (overlap with previous segment)",
				Want: 0, Got: chanSegs[i].Start.Sub(chanSegs[i-1].End),
			})
		}
	}

	for k, s := range chanSegs {
		i := idx[k]
		switch s.Kind {
		case obs.KindBusCmdAddr:
			min := c.Timing.TCS + sim.Duration(s.Bytes)*c.Timing.LatchCycle() + c.Timing.TCH
			if duration(s) < min {
				out = append(out, Violation{Index: i, Rule: "latch burst too short", Want: min, Got: duration(s)})
			}
		case obs.KindBusDataOut, obs.KindBusDataIn:
			min := c.Timing.TDQSS + c.Bus.DataTime(int(s.Bytes)) + c.Timing.TRPST
			if duration(s) < min {
				out = append(out, Violation{Index: i, Rule: "data burst too short", Want: min, Got: duration(s)})
			}
		}
	}

	// Inter-segment gaps, per chip.
	lastCmd := map[int16]sim.Time{}     // end of last CMD/ADDR per chip
	lastConfirm := map[int16]sim.Time{} // end of last confirm-latch burst per chip
	for k, s := range chanSegs {
		i := idx[k]
		switch s.Kind {
		case obs.KindBusDataOut:
			if end, ok := lastCmd[s.Chip]; ok {
				if gap := s.Start.Sub(end); gap < c.Timing.TWHR {
					out = append(out, Violation{Index: i, Rule: "tWHR (command to data output)", Want: c.Timing.TWHR, Got: gap})
				}
			}
		case obs.KindBusCmdAddr:
			if t, ok := lastConfirm[s.Chip]; ok {
				if gap := s.Start.Sub(t); gap < 0 {
					out = append(out, Violation{Index: i, Rule: "tWB (confirm to next address)", Want: c.Timing.TWB, Got: gap + c.Timing.TWB})
				}
			}
			lastCmd[s.Chip] = s.End
			if s.Depth == 1 {
				lastConfirm[s.Chip] = s.End // End already includes tWB (µFSM responsibility)
			}
		}
	}
	return out
}
