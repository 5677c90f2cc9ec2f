// Package ops is BABOL's operation library: ONFI standard and
// vendor-advanced flash operations written against the core.Ctx software
// environment. Each operation is plain sequential code that composes
// µFSM instructions into transactions and yields at Submit — the Go
// rendering of the paper's Figure 8 algorithms.
//
// Operations nest naturally: ReadPage calls the same pollReady helper an
// SSD Architect would reuse, exactly as Algorithm 2 invokes Algorithm 1.
// ReadPage, ProgramPage and EraseBlock spell their steps out as the
// paper's algorithms do (they are what Table II counts). Every other
// operation is composed from a few shared steps: waitOK (wait out a
// chip, turn FAIL into an error), dataOut (the column-change data-out),
// loadPage and readPage (a page read inside a longer operation),
// startErase and startProgram (latch an ERASE or a PROGRAM), and, for
// the suspending operations, serveUntilReady and suspendAndServe
// (interruptible.go).
package ops

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/onfi"
	"repro/internal/sim"
)

// ReadStatus issues one READ STATUS against chip from within a running
// operation and returns the status byte. It is the building block of
// Algorithm 1: a command latch for 0x70 followed by a one-byte data read.
func ReadStatus(ctx *core.Ctx, chip int) (byte, error) {
	ctx.Chip(bus.Mask(chip))
	ctx.Cmd(onfi.CmdReadStatus)
	ctx.ReadCapture(1)
	res := ctx.Submit()
	if res.Err != nil {
		return 0, res.Err
	}
	if len(res.Captured) != 1 {
		return 0, fmt.Errorf("ops: read status captured %d bytes", len(res.Captured))
	}
	return res.Captured[0], nil
}

// pollReady polls READ STATUS until the chip reports ready (Algorithm 2
// lines 7..9: SSD Architects poll for the end of tR rather than use a
// fixed wait, because tR is highly variable). It returns the final
// status byte so callers can inspect FAIL bits. The loop is bounded:
// a chip busy past the package's worst-case time escalates to RESET
// recovery (see recovery.go).
func pollReady(ctx *core.Ctx, chip int) (byte, error) {
	return pollStatus(ctx, chip, onfi.StatusRDY)
}

// appendReadLatches appends the READ.1 + 5-address + confirm burst to
// dst. Callers pass a stack-backed dst so the burst never touches the
// heap — Ctx.CmdAddr copies it into the context's latch arena.
func appendReadLatches(dst []onfi.Latch, g onfi.Geometry, a onfi.Addr, confirm onfi.Cmd) []onfi.Latch {
	dst = append(dst, onfi.CmdLatch(onfi.CmdRead1))
	dst = g.AppendAddrLatches(dst, a)
	dst = append(dst, onfi.CmdLatch(confirm))
	return dst
}

// appendChangeColumnLatches appends the 0x05 + column + 0xE0 burst to dst.
func appendChangeColumnLatches(dst []onfi.Latch, col onfi.ColAddr) []onfi.Latch {
	cb := onfi.EncodeColAddr(col)
	return append(dst,
		onfi.CmdLatch(onfi.CmdChangeReadCol1),
		onfi.AddrLatch(cb[0]), onfi.AddrLatch(cb[1]),
		onfi.CmdLatch(onfi.CmdChangeReadCol2),
	)
}

// waitOK waits out chip's busy time (pollReady) and turns a FAIL status
// into fail's error. fail runs only on that path, so a successful wait
// formats nothing.
func waitOK(ctx *core.Ctx, chip int, fail func() error) error {
	s, err := pollReady(ctx, chip)
	if err != nil {
		return err
	}
	if s&onfi.StatusFail != 0 {
		return fail()
	}
	return nil
}

// dataOut selects column col of the page register and streams n bytes
// from it into DRAM at dramAddr: Algorithm 2's second transaction.
func dataOut(ctx *core.Ctx, col onfi.ColAddr, dramAddr, n int) error {
	var lbuf [4]onfi.Latch
	ctx.CmdAddr(appendChangeColumnLatches(lbuf[:0], col)...)
	ctx.ReadData(dramAddr, n)
	return ctx.Submit().Err
}

// loadPage reads row into the page register of the operation's chip:
// the pre latches (ReadPageSLC's pSLC enable), READ.1 + address +
// READ.2, then the wait through tR.
func loadPage(ctx *core.Ctx, g onfi.Geometry, pre []onfi.Latch, row onfi.RowAddr, fail func() error) error {
	var lbuf [9]onfi.Latch
	latches := append(lbuf[:0], pre...)
	ctx.CmdAddr(appendReadLatches(latches, g, onfi.Addr{Row: row}, onfi.CmdRead2)...)
	if res := ctx.Submit(); res.Err != nil {
		return res.Err
	}
	return waitOK(ctx, ctx.ChipIndex(), fail)
}

// readPage is a page read in the middle of an operation: loadPage, then
// dataOut. It does not reuse RunReadPage, whose SubmitFinal would let a
// staged successor onto the chip before the operation ends.
func readPage(ctx *core.Ctx, g onfi.Geometry, addr onfi.Addr, dramAddr, n int, fail func() error) error {
	if err := loadPage(ctx, g, nil, addr.Row, fail); err != nil {
		return err
	}
	return dataOut(ctx, addr.Col, dramAddr, n)
}

// startErase checks block and latches its BLOCK ERASE (60h + row
// address + D0h), which starts tBERS.
func startErase(ctx *core.Ctx, g onfi.Geometry, block int) error {
	row := onfi.RowAddr{Block: block}
	if err := g.CheckAddr(onfi.Addr{Row: row}); err != nil {
		return err
	}
	var lbuf [5]onfi.Latch
	latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdErase1))
	latches = g.AppendRowLatches(latches, row)
	latches = append(latches, onfi.CmdLatch(onfi.CmdErase2))
	ctx.CmdAddr(latches...)
	return ctx.Submit().Err
}

// startProgram latches PAGE PROGRAM of addr with n bytes from DRAM at
// dramAddr: 80h + address, the data burst, then confirm — 10h starts
// tPROG, 11h queues one plane of a multi-plane program.
func startProgram(ctx *core.Ctx, g onfi.Geometry, addr onfi.Addr, dramAddr, n int, confirm onfi.Cmd) error {
	var lbuf [8]onfi.Latch
	latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdProgram1))
	ctx.CmdAddr(g.AppendAddrLatches(latches, addr)...)
	ctx.WriteData(dramAddr, n)
	ctx.CmdAddr(onfi.CmdLatch(confirm))
	return ctx.Submit().Err
}

// ReadPage returns the READ operation with a Column Address Change
// (Algorithm 2) as an OpFunc; RunReadPage is its body.
func ReadPage(addr onfi.Addr, dramAddr, n int) core.OpFunc {
	return func(ctx *core.Ctx) error { return RunReadPage(ctx, addr, dramAddr, n) }
}

// RunReadPage runs the READ operation with a Column Address Change
// (Algorithm 2) inside ctx: latch command+address, poll status through
// tR, then change the read column to addr.Col and transfer n bytes into
// DRAM at dramAddr. A caller that binds its arguments on pooled state
// runs it without building a closure per request.
func RunReadPage(ctx *core.Ctx, addr onfi.Addr, dramAddr, n int) error {
	chip := ctx.ChipIndex()
	g := ctx.Geometry()
	if err := g.CheckAddr(addr); err != nil {
		return err
	}
	// Transaction 1: command + page address + confirm (starts tR).
	var lbuf [8]onfi.Latch
	ctx.CmdAddr(appendReadLatches(lbuf[:0], g, onfi.Addr{Row: addr.Row}, onfi.CmdRead2)...)
	if res := ctx.Submit(); res.Err != nil {
		return res.Err
	}
	// Poll for tR completion.
	s, err := pollReady(ctx, chip)
	if err != nil {
		return err
	}
	if s&onfi.StatusFail != 0 {
		return fmt.Errorf("ops: read at %+v reported FAIL", addr.Row)
	}
	// Transaction 2 (final): select the column and stream the data
	// out. The Final tag lets a staged successor start the instant
	// the transfer leaves the channel.
	ctx.CmdAddr(appendChangeColumnLatches(lbuf[:0], addr.Col)...)
	ctx.ReadData(dramAddr, n)
	if res := ctx.SubmitFinal(); res.Err != nil {
		return res.Err
	}
	return nil
}

// ReadPageSLC is the pseudo-SLC READ variation (Algorithm 3): identical
// to ReadPage except the vendor pSLC preamble precedes the command latch,
// trading capacity for speed and endurance.
func ReadPageSLC(addr onfi.Addr, dramAddr, n int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		g := ctx.Geometry()
		if err := g.CheckAddr(addr); err != nil {
			return err
		}
		// The only difference from ReadPage (the paper greys exactly
		// this): a pSLC enable latch ahead of READ.1.
		err := loadPage(ctx, g, []onfi.Latch{onfi.CmdLatch(onfi.CmdPSLCEnable)}, addr.Row, func() error {
			return fmt.Errorf("ops: pSLC read at %+v reported FAIL", addr.Row)
		})
		if err != nil {
			return err
		}
		var lbuf [4]onfi.Latch
		ctx.CmdAddr(appendChangeColumnLatches(lbuf[:0], addr.Col)...)
		ctx.ReadData(dramAddr, n)
		return ctx.SubmitFinal().Err
	}
}

// ReadPageFixedWait is the naive READ variant that spends a fixed tR-long
// sleep instead of polling. It demonstrates Timer-style inter-segment
// waits and serves as the ablation baseline for the polling design.
func ReadPageFixedWait(addr onfi.Addr, dramAddr, n int, wait sim.Duration) core.OpFunc {
	return func(ctx *core.Ctx) error {
		g := ctx.Geometry()
		if err := g.CheckAddr(addr); err != nil {
			return err
		}
		var lbuf [8]onfi.Latch
		ctx.CmdAddr(appendReadLatches(lbuf[:0], g, onfi.Addr{Row: addr.Row}, onfi.CmdRead2)...)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		ctx.Sleep(wait)
		return dataOut(ctx, addr.Col, dramAddr, n)
	}
}

// ProgramPage returns the PAGE PROGRAM operation as an OpFunc;
// RunProgramPage is its body.
func ProgramPage(addr onfi.Addr, dramAddr, n int) core.OpFunc {
	return func(ctx *core.Ctx) error { return RunProgramPage(ctx, addr, dramAddr, n) }
}

// ProgramPageSLC is the pSLC PROGRAM variation.
func ProgramPageSLC(addr onfi.Addr, dramAddr, n int) core.OpFunc {
	return func(ctx *core.Ctx) error { return programPage(ctx, addr, dramAddr, n, true) }
}

// RunProgramPage runs the PAGE PROGRAM operation inside ctx: latch
// command+address, stream n bytes from DRAM at dramAddr, confirm, and
// poll through tPROG.
func RunProgramPage(ctx *core.Ctx, addr onfi.Addr, dramAddr, n int) error {
	return programPage(ctx, addr, dramAddr, n, false)
}

func programPage(ctx *core.Ctx, addr onfi.Addr, dramAddr, n int, slc bool) error {
	chip := ctx.ChipIndex()
	g := ctx.Geometry()
	if err := g.CheckAddr(addr); err != nil {
		return err
	}
	var lbuf [8]onfi.Latch
	latches := lbuf[:0]
	if slc {
		latches = append(latches, onfi.CmdLatch(onfi.CmdPSLCEnable))
	}
	latches = append(latches, onfi.CmdLatch(onfi.CmdProgram1))
	latches = g.AppendAddrLatches(latches, addr)
	ctx.CmdAddr(latches...)
	ctx.WriteData(dramAddr, n)
	ctx.CmdAddr(onfi.CmdLatch(onfi.CmdProgram2))
	if res := ctx.Submit(); res.Err != nil {
		return res.Err
	}
	s, err := pollReady(ctx, chip)
	if err != nil {
		return err
	}
	if s&onfi.StatusFail != 0 {
		return fmt.Errorf("ops: program at %+v reported FAIL", addr.Row)
	}
	return nil
}

// EraseBlock returns the BLOCK ERASE operation as an OpFunc;
// RunEraseBlock is its body.
func EraseBlock(block int) core.OpFunc {
	return func(ctx *core.Ctx) error { return RunEraseBlock(ctx, block) }
}

// RunEraseBlock runs the BLOCK ERASE operation inside ctx: command +
// 3-cycle row address + confirm, then poll through tBERS.
func RunEraseBlock(ctx *core.Ctx, block int) error {
	chip := ctx.ChipIndex()
	g := ctx.Geometry()
	row := onfi.RowAddr{Block: block}
	if err := g.CheckAddr(onfi.Addr{Row: row}); err != nil {
		return err
	}
	var lbuf [5]onfi.Latch
	latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdErase1))
	latches = g.AppendRowLatches(latches, row)
	latches = append(latches, onfi.CmdLatch(onfi.CmdErase2))
	ctx.CmdAddr(latches...)
	if res := ctx.Submit(); res.Err != nil {
		return res.Err
	}
	s, err := pollReady(ctx, chip)
	if err != nil {
		return err
	}
	if s&onfi.StatusFail != 0 {
		return fmt.Errorf("ops: erase of block %d reported FAIL", block)
	}
	return nil
}

// ReadID returns the READ ID operation, capturing n identifier bytes.
// The captured bytes are delivered through out.
func ReadID(out *[]byte, n int) core.OpFunc {
	return func(ctx *core.Ctx) error {
		ctx.CmdAddr(onfi.CmdLatch(onfi.CmdReadID), onfi.AddrLatch(0))
		ctx.ReadCapture(n)
		res := ctx.Submit()
		if res.Err != nil {
			return res.Err
		}
		*out = append((*out)[:0], res.Captured...)
		return nil
	}
}

// Reset returns the RESET operation: issue 0xFF and poll until the LUN
// comes back.
func Reset() core.OpFunc {
	return func(ctx *core.Ctx) error {
		ctx.Cmd(onfi.CmdReset)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		_, err := pollReady(ctx, ctx.ChipIndex())
		return err
	}
}

// SetFeature returns the SET FEATURES operation. The waveform needs a
// tADL pause between the address cycle and the four parameter bytes —
// the Timer µFSM's canonical use (paper §IV-A).
func SetFeature(feat onfi.FeatureAddr, value [4]byte) core.OpFunc {
	return func(ctx *core.Ctx) error {
		return setFeature(ctx, feat, value)
	}
}

// setFeature is the nestable body of SetFeature.
func setFeature(ctx *core.Ctx, feat onfi.FeatureAddr, value [4]byte) error {
	tm := ctx.Controller().Channel().Timing()
	ctx.CmdAddr(onfi.CmdLatch(onfi.CmdSetFeatures), onfi.AddrLatch(byte(feat)))
	ctx.Wait(tm.TADL)
	// The four parameter bytes travel over a dedicated DRAM scratch
	// window staged by the controller.
	scratch, err := ctx.Scratch(4)
	if err != nil {
		return err
	}
	copy(scratch.Bytes, value[:])
	ctx.WriteData(scratch.Addr, 4)
	if res := ctx.Submit(); res.Err != nil {
		return res.Err
	}
	_, err = pollReady(ctx, ctx.ChipIndex())
	return err
}

// GetFeature returns the GET FEATURES operation, delivering the four
// parameter bytes through out.
func GetFeature(feat onfi.FeatureAddr, out *[4]byte) core.OpFunc {
	return func(ctx *core.Ctx) error {
		tm := ctx.Controller().Channel().Timing()
		ctx.CmdAddr(onfi.CmdLatch(onfi.CmdGetFeatures), onfi.AddrLatch(byte(feat)))
		ctx.Wait(tm.TADL)
		ctx.ReadCapture(4)
		res := ctx.Submit()
		if res.Err != nil {
			return res.Err
		}
		copy(out[:], res.Captured)
		return nil
	}
}
