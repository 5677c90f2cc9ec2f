package ops

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/onfi"
)

// CopybackPage moves a page from src to dst inside one LUN without the
// data ever crossing the channel: READ FOR COPYBACK (00h…35h) pulls the
// page into the LUN's register, COPYBACK PROGRAM (85h…10h) writes the
// register to the new address. Only the latch bursts and status polls
// touch the bus, so a 16-KiB relocation costs ~1 µs of channel time
// instead of ~165 µs of read-out plus write-in — the reason garbage
// collection wants this operation.
//
// Caveat (as on real NAND): the data is not ECC-scrubbed in transit, so
// accumulated bit errors propagate to the destination. Drives alternate
// copyback with read-verify passes; the SSD assembly exposes the choice.
func CopybackPage(src, dst onfi.RowAddr) core.OpFunc {
	return func(ctx *core.Ctx) error {
		chip := ctx.ChipIndex()
		g := ctx.Geometry()
		if err := g.CheckAddr(onfi.Addr{Row: src}); err != nil {
			return fmt.Errorf("ops: copyback source: %w", err)
		}
		if err := g.CheckAddr(onfi.Addr{Row: dst}); err != nil {
			return fmt.Errorf("ops: copyback destination: %w", err)
		}
		// Transaction 1: READ FOR COPYBACK.
		var lbuf [8]onfi.Latch
		ctx.CmdAddr(appendReadLatches(lbuf[:0], g, onfi.Addr{Row: src}, onfi.CmdCopybackRead)...)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		if err := waitOK(ctx, chip, func() error { return fmt.Errorf("ops: copyback read of %+v reported FAIL", src) }); err != nil {
			return err
		}
		// Transaction 2: COPYBACK PROGRAM to the destination.
		latches := append(lbuf[:0], onfi.CmdLatch(onfi.CmdCopybackProgram))
		latches = g.AppendAddrLatches(latches, onfi.Addr{Row: dst})
		latches = append(latches, onfi.CmdLatch(onfi.CmdProgram2))
		ctx.CmdAddr(latches...)
		if res := ctx.Submit(); res.Err != nil {
			return res.Err
		}
		return waitOK(ctx, chip, func() error { return fmt.Errorf("ops: copyback program to %+v reported FAIL", dst) })
	}
}
