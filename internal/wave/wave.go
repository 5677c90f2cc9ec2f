// Package wave is the logic-analyzer view of a channel — the
// simulation's stand-in for the Keysight analyzer the paper uses in
// Section VI-B.
//
// The probe is the bus itself: bus.Channel emits every segment it drives
// (a command/address latch burst, a data burst in either direction, a
// timer pause) and every die-busy window a command starts as a pin-level
// obs event with exact virtual start and end times. This package only
// reads those events: Render lists them, WriteVCD exports them, and a
// Checker verifies them against the ONFI timing rules. Every view takes
// an []obs.Event and skips the kinds that are not pin-level, so a whole
// controller trace can be handed over as is.
package wave

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// kindName labels a pin-level kind as an analyzer listing does; "" for
// every other kind.
func kindName(k obs.Kind) string {
	switch k {
	case obs.KindBusCmdAddr:
		return "CMD/ADDR"
	case obs.KindBusDataOut:
		return "DATA-OUT"
	case obs.KindBusDataIn:
		return "DATA-IN"
	case obs.KindBusWait:
		return "WAIT"
	case obs.KindDieBusy:
		return "BUSY"
	}
	return ""
}

// onChannel reports whether events of kind k occupy the shared channel.
func onChannel(k obs.Kind) bool { return k.PinLevel() && k != obs.KindDieBusy }

func duration(e obs.Event) sim.Duration { return e.End.Sub(e.Start) }

// Render formats the pin-level events of a trace, in emission order, as
// an analyzer-style listing:
//
//	t=0s        +290ns   CMD/ADDR chip0  READ.1 ADDR×5 READ.2
//	t=290ns     +100us   BUSY     chip0  tR
func Render(events []obs.Event) string {
	var b strings.Builder
	for _, e := range events {
		name := kindName(e.Kind)
		if name == "" {
			continue
		}
		fmt.Fprintf(&b, "t=%-12v +%-10v %-8s chip%-2d %s",
			e.Start, duration(e), name, e.Chip, e.Label)
		if e.Kind == obs.KindBusDataOut || e.Kind == obs.KindBusDataIn {
			fmt.Fprintf(&b, " (%dB)", e.Bytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
