// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of BABOL's timing — ONFI waveform delays, NAND busy times, channel
// transfers, and firmware cycle charges — is expressed in virtual time on
// this kernel. Virtual time is counted in integer picoseconds, which is
// fine enough to represent sub-nanosecond waveform details exactly and
// wide enough (int64) to simulate more than a hundred days.
//
// Event accounting: every scheduled event fires; there is no
// cancellation. Kernel.Executed counts events that have fired.
// Kernel.Pending counts events scheduled and not yet fired — the number
// of callbacks still owed if the simulation runs to quiescence with no
// further scheduling.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute instant in virtual time, in picoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Std converts a virtual duration to a time.Duration. Precision below one
// nanosecond is truncated; Std is intended for reporting, not simulation.
func (d Duration) Std() time.Duration { return time.Duration(d/Nanosecond) * time.Nanosecond }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports d as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration with an adaptive unit, e.g. "53us" or "1.2ms".
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d < Nanosecond && d > -Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond && d > -Microsecond:
		return formatUnit(float64(d)/float64(Nanosecond), "ns")
	case d < Millisecond && d > -Millisecond:
		return formatUnit(float64(d)/float64(Microsecond), "us")
	case d < Second && d > -Second:
		return formatUnit(float64(d)/float64(Millisecond), "ms")
	default:
		return formatUnit(float64(d)/float64(Second), "s")
	}
}

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

func formatUnit(v float64, unit string) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d%s", int64(v), unit)
	}
	return fmt.Sprintf("%.3g%s", v, unit)
}
