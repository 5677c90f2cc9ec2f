// Package bus models one flash channel: the shared command/address/data
// bus that connects a channel controller to the LUNs ("chips") attached
// to it. The bus enforces exclusivity, charges transfer time according to
// the configured ONFI data-interface mode, demultiplexes chip-enable
// selection, and emits every segment as a pin-level obs event.
package bus

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// ChipMask selects a set of chips on the channel, one bit per chip. The
// Chip Control µFSM drives this; most operations select exactly one chip,
// but gang-scheduled operations (e.g. RAIL-style replicated writes)
// select several.
type ChipMask uint16

// MaxChips is how many chips a ChipMask can select: one channel carries
// at most this many LUNs.
const MaxChips = 16

// Mask builds a mask selecting exactly chip i.
func Mask(i int) ChipMask { return 1 << i }

// Has reports whether chip i is selected.
func (m ChipMask) Has(i int) bool { return m&(1<<i) != 0 }

// Count reports how many chips are selected.
func (m ChipMask) Count() int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Channel is one shared flash channel.
type Channel struct {
	kernel *sim.Kernel
	cfg    onfi.BusConfig
	timing onfi.Timing
	chips  []*nand.LUN
	tr     obs.Tracer

	busyUntil sim.Time
	stats     Stats
}

// Stats counts channel activity.
type Stats struct {
	LatchBursts   uint64
	DataOutBursts uint64
	DataInBursts  uint64
	Pauses        uint64
	BytesOut      uint64
	BytesIn       uint64
	BusyTime      sim.Duration
}

// New creates a channel.
func New(k *sim.Kernel, cfg onfi.BusConfig, timing onfi.Timing) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Channel{kernel: k, cfg: cfg, timing: timing}, nil
}

// SetTracer attaches the channel's logic-analyzer probe: one pin-level
// obs event (KindBusCmdAddr … KindDieBusy) per bus segment. nil (the
// default) disables emission.
func (c *Channel) SetTracer(t obs.Tracer) { c.tr = t }

// Attach wires a LUN onto the channel and returns its chip index.
func (c *Channel) Attach(l *nand.LUN) int {
	c.chips = append(c.chips, l)
	return len(c.chips) - 1
}

// Chips reports how many chips are attached.
func (c *Channel) Chips() int { return len(c.chips) }

// Chip returns the LUN at index i.
func (c *Channel) Chip(i int) *nand.LUN { return c.chips[i] }

// Config returns the electrical configuration.
func (c *Channel) Config() onfi.BusConfig { return c.cfg }

// Timing returns the ONFI timing parameter set in force.
func (c *Channel) Timing() onfi.Timing { return c.timing }

// Stats returns a snapshot of the activity counters.
func (c *Channel) Stats() Stats { return c.stats }

// SetRate reclocks the channel at runtime — the boot flow runs slowly in
// SDR-compatible speed, switches the packages' timing mode via SET
// FEATURES, and then raises the channel clock. The new rate applies to
// segments issued afterwards.
func (c *Channel) SetRate(rateMT int) error {
	next := c.cfg
	next.RateMT = rateMT
	if err := next.Validate(); err != nil {
		return err
	}
	c.cfg = next
	return nil
}

// Free reports whether the channel is idle at the current virtual time.
func (c *Channel) Free() bool { return c.kernel.Now() >= c.busyUntil }

// FreeAt reports when the channel becomes idle.
func (c *Channel) FreeAt() sim.Time { return c.busyUntil }

func (c *Channel) checkMask(m ChipMask) error {
	if m == 0 {
		return fmt.Errorf("bus: empty chip mask")
	}
	for i := 0; i < MaxChips; i++ {
		if m.Has(i) && i >= len(c.chips) {
			return fmt.Errorf("bus: chip %d selected but only %d attached", i, len(c.chips))
		}
	}
	return nil
}

// claim appends a segment of length d to the channel schedule: it starts
// at the later of now and the current busy horizon, so segments chained
// within one transaction queue back-to-back. Transaction *starts* are
// gated by the schedulers, which only grant a free channel; within a
// granted transaction, chained segments append without re-arbitration
// (a transaction "monopolizes the channel", paper §V).
func (c *Channel) claim(d sim.Duration) (start, end sim.Time) {
	start = c.kernel.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end = start.Add(d)
	c.busyUntil = end
	c.stats.BusyTime += d
	return start, end
}

// firstChip returns the lowest selected chip index for trace labelling.
func firstChip(m ChipMask) int {
	for i := 0; i < MaxChips; i++ {
		if m.Has(i) {
			return i
		}
	}
	return -1
}

// Latch drives a command/address burst to every selected chip. The burst
// occupies the channel for the full segment time (CE setup, n latch
// cycles, CE hold, and the trailing tWB absorption wait). It returns the
// time at which the channel frees.
func (c *Channel) Latch(sel ChipMask, latches []onfi.Latch, opID uint64) (sim.Time, error) {
	if err := c.checkMask(sel); err != nil {
		return 0, err
	}
	if len(latches) == 0 {
		return 0, fmt.Errorf("bus: empty latch burst")
	}
	start, end := c.claim(c.timing.LatchSegment(len(latches)))
	// Capture each selected chip's busy horizon before the latch so a
	// busy interval the command *starts* (tR, tPROG, tBERS) can be
	// emitted below; a status poll while busy leaves the horizon alone
	// and emits nothing.
	var prevReady [MaxChips]sim.Time
	if c.tr != nil {
		for i := range c.chips {
			if sel.Has(i) {
				prevReady[i] = c.chips[i].ReadyAt()
			}
		}
	}
	// The LUN absorbs the command at the end of the burst.
	for i := range c.chips {
		if sel.Has(i) {
			if err := c.chips[i].Latch(end, latches); err != nil {
				return 0, err
			}
		}
	}
	c.stats.LatchBursts++
	// Building the event (label string included) is itself a cost, so
	// skip it entirely unless the probe is attached — untraced, a latch
	// burst charges pure timing.
	if c.tr != nil {
		now := c.kernel.Now()
		confirm := int32(0)
		if confirms(latches) {
			confirm = 1
		}
		c.tr.Event(obs.Event{
			Time: now, Kind: obs.KindBusCmdAddr, OpID: opID, Chip: int16(firstChip(sel)),
			Start: start, End: end, Depth: confirm, Bytes: int32(len(latches)),
			Label: onfi.SummarizeLatches(latches),
		})
		// Emit the die-busy window this burst announced — the R/B# line
		// of the paper's logic-analyzer captures. The window reflects the
		// busy time declared at command acceptance; a later suspend can
		// end the real busy interval early.
		for i := range c.chips {
			if !sel.Has(i) {
				continue
			}
			if ready := c.chips[i].ReadyAt(); ready > end && ready > prevReady[i] {
				c.tr.Event(obs.Event{
					Time: now, Kind: obs.KindDieBusy, OpID: opID, Chip: int16(i),
					Start: end, End: ready, Label: busyLabel(latches),
				})
			}
		}
	}
	return end, nil
}

// confirms reports whether a latch burst ends in a confirm command that
// starts array work, after which the chip must not be addressed for tWB.
func confirms(latches []onfi.Latch) bool {
	last := latches[len(latches)-1]
	if last.Kind != onfi.LatchCmd {
		return false
	}
	switch onfi.Cmd(last.Value) {
	case onfi.CmdRead2, onfi.CmdProgram2, onfi.CmdErase2, onfi.CmdCacheRead, onfi.CmdCacheProgram2:
		return true
	}
	return false
}

// busyLabel names the busy interval a latch burst starts, after the
// timing parameter that governs it.
func busyLabel(latches []onfi.Latch) string {
	last := latches[len(latches)-1]
	if last.Kind != onfi.LatchCmd {
		return "busy"
	}
	switch onfi.Cmd(last.Value) {
	case onfi.CmdRead2, onfi.CmdCacheRead, onfi.CmdCacheReadEnd, onfi.CmdCopybackRead:
		return "tR"
	case onfi.CmdProgram2, onfi.CmdCacheProgram2:
		return "tPROG"
	case onfi.CmdErase2:
		return "tBERS"
	case onfi.CmdReset, onfi.CmdSynchronousReset:
		return "tRST"
	default:
		return "busy"
	}
}

// DataOut streams n bytes from one chip to the controller into a fresh
// slice. Hot paths use DataOutInto with a caller-owned destination.
func (c *Channel) DataOut(sel ChipMask, n int, opID uint64) ([]byte, sim.Time, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("bus: data out of %d bytes", n)
	}
	data := make([]byte, n)
	end, err := c.DataOutInto(sel, data, opID)
	if err != nil {
		return nil, 0, err
	}
	return data, end, nil
}

// DataOutInto streams len(dst) bytes from one chip to the controller
// directly into dst — the Data Reader µFSM writing a caller-owned
// buffer with no intermediate copy. The channel is occupied for the tWHR
// command-to-data gap, the DQS preamble, the data transfer, and the
// postamble. Exactly one chip must be selected: ONFI cannot gang data
// output.
func (c *Channel) DataOutInto(sel ChipMask, dst []byte, opID uint64) (sim.Time, error) {
	chip, xferStart, end, err := c.claimDataOut(sel, len(dst))
	if err != nil {
		return 0, err
	}
	if err := c.chips[chip].DataOutInto(xferStart, dst); err != nil {
		return 0, err
	}
	c.dataOutDone(chip, len(dst), xferStart, end, opID)
	return end, nil
}

// DataOutDRAM is DataOutInto with the Packetizer's DRAM store as the
// destination: n bytes land in mem at addr. A clean page read lends the
// stored page to mem instead of copying it (nand.LUN.DataOutDRAM); the
// channel time, counters and event are DataOutInto's either way. An
// out-of-range window fails before the channel is claimed.
func (c *Channel) DataOutDRAM(sel ChipMask, mem *dram.Buffer, addr, n int, opID uint64) (sim.Time, error) {
	if err := mem.Check(addr, n); err != nil {
		return 0, err
	}
	chip, xferStart, end, err := c.claimDataOut(sel, n)
	if err != nil {
		return 0, err
	}
	if err := c.chips[chip].DataOutDRAM(xferStart, mem, addr, n); err != nil {
		return 0, err
	}
	c.dataOutDone(chip, n, xferStart, end, opID)
	return end, nil
}

// claimDataOut validates an n-byte data-out burst and claims the channel
// for the tWHR command-to-data gap, the DQS preamble, the data transfer,
// and the postamble. It returns the one selected chip and when its
// transfer starts and the channel frees.
func (c *Channel) claimDataOut(sel ChipMask, n int) (chip int, xferStart, end sim.Time, err error) {
	if err := c.checkMask(sel); err != nil {
		return 0, 0, 0, err
	}
	if sel.Count() != 1 {
		return 0, 0, 0, fmt.Errorf("bus: data out needs exactly one chip, mask has %d", sel.Count())
	}
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("bus: data out of %d bytes", n)
	}
	chip = firstChip(sel)
	if max := c.chips[chip].MaxRateMT(); c.cfg.RateMT > max {
		return 0, 0, 0, fmt.Errorf("bus: data out at %d MT/s but chip %d's timing mode tops out at %d MT/s (boot flow must switch it via SET FEATURES)", c.cfg.RateMT, chip, max)
	}
	start, end := c.claim(c.timing.TWHR + c.timing.DataSegment(c.cfg, n))
	return chip, start.Add(c.timing.TWHR), end, nil
}

// dataOutDone counts a finished data-out burst and emits its event.
func (c *Channel) dataOutDone(chip, n int, xferStart, end sim.Time, opID uint64) {
	c.stats.DataOutBursts++
	c.stats.BytesOut += uint64(n)
	if c.tr != nil {
		c.tr.Event(obs.Event{
			Time: c.kernel.Now(), Kind: obs.KindBusDataOut, OpID: opID, Chip: int16(chip),
			Start: xferStart, End: end, Bytes: int32(n), Label: "data out",
		})
	}
}

// DataIn streams data from the controller to every selected chip
// (broadcast writes are how gang-replication works). The channel is
// occupied for the DQS preamble, the transfer, and the postamble.
func (c *Channel) DataIn(sel ChipMask, data []byte, opID uint64) (sim.Time, error) {
	if err := c.checkMask(sel); err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("bus: empty data in")
	}
	for i := range c.chips {
		if sel.Has(i) {
			if max := c.chips[i].MaxRateMT(); c.cfg.RateMT > max {
				return 0, fmt.Errorf("bus: data in at %d MT/s but chip %d's timing mode tops out at %d MT/s", c.cfg.RateMT, i, max)
			}
		}
	}
	start, end := c.claim(c.timing.DataSegment(c.cfg, len(data)))
	for i := range c.chips {
		if sel.Has(i) {
			if err := c.chips[i].DataIn(start, data); err != nil {
				return 0, err
			}
		}
	}
	c.stats.DataInBursts++
	c.stats.BytesIn += uint64(len(data))
	if c.tr != nil {
		c.tr.Event(obs.Event{
			Time: c.kernel.Now(), Kind: obs.KindBusDataIn, OpID: opID, Chip: int16(firstChip(sel)),
			Start: start, End: end, Bytes: int32(len(data)), Label: "data in",
		})
	}
	return end, nil
}

// Pause occupies the channel for d without driving any pins — the Timer
// µFSM's emission. Used for inter-segment delays such as tADL that must
// hold the bus.
func (c *Channel) Pause(d sim.Duration, opID uint64) (sim.Time, error) {
	if d < 0 {
		return 0, fmt.Errorf("bus: negative pause %v", d)
	}
	start, end := c.claim(d)
	c.stats.Pauses++
	if c.tr != nil {
		c.tr.Event(obs.Event{
			Time: c.kernel.Now(), Kind: obs.KindBusWait, OpID: opID, Chip: -1,
			Start: start, End: end, Label: "timer",
		})
	}
	return end, nil
}

// Status is a convenience for the READ STATUS idiom: it latches 0x70 to
// one chip and reads the status byte back, occupying the channel for both
// segments. It returns the status byte and the channel-free time.
func (c *Channel) Status(chip int, opID uint64) (byte, sim.Time, error) {
	lbuf := [1]onfi.Latch{onfi.CmdLatch(onfi.CmdReadStatus)}
	if _, err := c.Latch(Mask(chip), lbuf[:], opID); err != nil {
		return 0, 0, err
	}
	var data [1]byte
	end, err := c.DataOutInto(Mask(chip), data[:], opID)
	if err != nil {
		return 0, 0, err
	}
	return data[0], end, nil
}
